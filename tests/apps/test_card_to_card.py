"""Tests for the card-to-card communication model (§5.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.card_to_card import CARD_PAYLOAD_BITS, BackscatterCard, CardToCardLink
from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs


class TestCardToCardLink:
    def test_ber_increases_with_separation(self):
        link = CardToCardLink()
        assert link.bit_error_rate(5.0) < link.bit_error_rate(20.0) <= link.bit_error_rate(40.0)

    def test_paper_range_claim(self):
        # §5.3 / Fig. 17: communication works out to ~30 inches at 10 dBm.
        link = CardToCardLink(phone_power_dbm=10.0)
        assert 20.0 <= link.max_range_inches(ber_threshold=0.2) <= 40.0

    def test_receiver_power_monotonic(self):
        link = CardToCardLink()
        assert link.receiver_power_dbm(5.0) > link.receiver_power_dbm(25.0)

    def test_stronger_phone_extends_range(self):
        weak = CardToCardLink(phone_power_dbm=0.0).max_range_inches(ber_threshold=0.2)
        strong = CardToCardLink(phone_power_dbm=10.0).max_range_inches(ber_threshold=0.2)
        assert strong > weak

    def test_send_message_default_payload(self):
        link = CardToCardLink(rng=np.random.default_rng(0))
        result = link.send_message(card_separation_inches=5.0)
        assert result.sent_bits.size == CARD_PAYLOAD_BITS
        assert result.synchronized
        assert result.bit_errors <= 1

    def test_send_message_custom_bits(self):
        link = CardToCardLink(rng=np.random.default_rng(0))
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        result = link.send_message(bits, card_separation_inches=5.0)
        assert result.received_bits.size == bits.size

    def test_far_separation_is_noise(self):
        link = CardToCardLink(rng=np.random.default_rng(0))
        assert link.bit_error_rate(100.0) == pytest.approx(0.5)

    def test_ber_over_an_array_of_separations(self):
        link = CardToCardLink()
        ber = link.bit_error_rate(np.array([5.0, 15.0, 30.0]))
        assert ber.size == 3
        assert np.all(np.diff(ber) >= 0)

    def test_an_array_of_separations_is_bit_for_bit_the_per_point_calls(self):
        # Non-round separations, well past the point where the margin is <= 0.
        separations = np.concatenate([[1.0, 30.0], np.random.default_rng(4).uniform(0.05, 120.0, 3000)])
        link = CardToCardLink(phone_power_dbm=7.3, phone_to_transmitter_inches=2.7)
        power = link.receiver_power_dbm(separations)
        ber = link.bit_error_rate(separations)
        power_reference = [link.receiver_power_dbm(d) for d in separations.tolist()]
        ber_reference = [link.bit_error_rate(d) for d in separations.tolist()]
        assert all(isinstance(value, float) for value in power_reference + ber_reference)
        assert power.tolist() == power_reference
        assert ber.tolist() == ber_reference
        assert np.any(ber == 0.5) and np.any(ber < 0.5)

    @pytest.mark.parametrize("separation", (0.0, -2.0))
    @pytest.mark.parametrize("evaluation", ("receiver_power_dbm", "bit_error_rate"))
    def test_a_non_positive_separation_anywhere_in_an_array_is_rejected(self, evaluation, separation):
        evaluate = getattr(CardToCardLink(), evaluation)
        with pytest.raises(ConfigurationError, match="must be positive") as scalar:
            evaluate(separation)
        with pytest.raises(ConfigurationError) as array:
            evaluate(np.array([5.0, separation, 12.0]))
        assert str(array.value) == str(scalar.value)

    def test_send_message_evaluates_the_link_once(self):
        link = CardToCardLink(rng=np.random.default_rng(0))
        with obs.collect() as collector:
            for _ in range(3):
                link.send_message(card_separation_inches=20.0)
        assert collector.counters["channel.link_realisations"] == 3

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            CardToCardLink(phone_to_transmitter_inches=0.0)
        with pytest.raises(ConfigurationError):
            CardToCardLink().receiver_power_dbm(0.0)

    def test_card_defaults(self):
        card = BackscatterCard()
        assert card.detector_sensitivity_dbm < 0.0

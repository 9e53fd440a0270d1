"""Benchmarks for the repro.mc batched Monte-Carlo engine.

Two comparisons back the engine's acceptance criteria:

* the fig11-style PER sweep through the batch engine must beat the original
  per-trial scalar loop by ≥ 10× at equal trial counts while producing the
  same curves (up to Monte-Carlo noise), and
* a 1000-device fleet on the default heap engine must evaluate the PER
  model at most once per link plus once per captured packet, not once per
  packet.

The timed numbers also feed the CI benchmark-regression gate via
``--benchmark-json`` (see ``benchmarks/compare_benchmarks.py``).
"""

from __future__ import annotations

import time

import numpy as np

import repro.netsim.medium as medium_module
from repro.experiments import fig11_per
from repro.mc import BatchViterbiDecoder, encode_batch
from repro.netsim.fleet import FleetScenario, FleetSimulator
from repro.wifi.ofdm.convolutional import ViterbiDecoder

#: Equal trial counts for the scalar-vs-batch fig11 comparison.
LOCATIONS = 300
PACKETS = 200

#: Minimum accepted batch-over-scalar speedup (acceptance asks for 10×).
MIN_SPEEDUP = 10.0


def _best_of(callable_, repeats: int = 3) -> float:
    """Best wall-clock time of *repeats* runs (robust to one-off load spikes)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_fig11_sweep_batch_vs_scalar(benchmark, paper_report):
    """Batch engine ≥ 10× faster than the per-trial loop, same curves."""
    scalar = fig11_per.run(num_locations=LOCATIONS, num_packets=PACKETS, engine="scalar")
    scalar_seconds = _best_of(
        lambda: fig11_per.run(num_locations=LOCATIONS, num_packets=PACKETS, engine="scalar")
    )

    batch = benchmark(
        lambda: fig11_per.run(num_locations=LOCATIONS, num_packets=PACKETS, engine="batch")
    )
    batch_seconds = _best_of(
        lambda: fig11_per.run(num_locations=LOCATIONS, num_packets=PACKETS, engine="batch")
    )

    speedup = scalar_seconds / batch_seconds
    # Wall-clock gating belongs to the dedicated benchmark job; the measured
    # margin is ~8x the threshold, but don't let a loaded runner flake the
    # functional test matrix (--benchmark-disable smoke pass).
    if not benchmark.disabled:
        assert speedup >= MIN_SPEEDUP

    # Same seed, same location set; the engines consume the RNG in different
    # orders, so the curves agree up to Monte-Carlo noise.
    for rate in (2.0, 11.0):
        assert abs(
            float(np.mean(scalar.per_by_rate[rate])) - float(np.mean(batch.per_by_rate[rate]))
        ) < 0.08
        assert abs(scalar.median_per[rate] - batch.median_per[rate]) < 0.1

    paper_report(
        "repro.mc - fig11-style PER sweep, batch vs per-trial loop",
        [
            ("trials", f"{LOCATIONS} locations x {PACKETS}", "equal for both engines"),
            ("scalar loop", "baseline", f"{scalar_seconds * 1e3:.1f} ms"),
            ("batch engine", ">= 10x faster", f"{batch_seconds * 1e3:.2f} ms ({speedup:.0f}x)"),
            (
                "mean PER gap (2 Mbps)",
                "within MC noise",
                f"{abs(float(np.mean(scalar.per_by_rate[2.0])) - float(np.mean(batch.per_by_rate[2.0]))):.3f}",
            ),
        ],
    )


def test_batch_viterbi_throughput(benchmark, paper_report):
    """Trellis-batched Viterbi ≥ 10× faster than decoding one codeword at a time."""
    rng = np.random.default_rng(2016)
    codewords, data_bits = 64, 192
    bits = rng.integers(0, 2, (codewords, data_bits), dtype=np.uint8)
    noisy = encode_batch(bits) ^ (rng.random((codewords, 2 * data_bits)) < 0.04).astype(np.uint8)

    decoder = BatchViterbiDecoder()
    decoded = benchmark(lambda: decoder.decode_batch(noisy))

    scalar = ViterbiDecoder()
    sample = min(8, codewords)

    def scalar_sample():
        for index in range(sample):
            scalar.decode(noisy[index])

    scalar_seconds = _best_of(scalar_sample, repeats=2) / sample * codewords
    batch_seconds = _best_of(lambda: decoder.decode_batch(noisy), repeats=2)
    speedup = scalar_seconds / batch_seconds
    if not benchmark.disabled:
        assert speedup >= MIN_SPEEDUP

    # Bit-exactness is covered exhaustively in tests/mc; spot-check here.
    assert np.array_equal(decoded[0], scalar.decode(noisy[0]))

    paper_report(
        "repro.mc - batched Viterbi (K=7) throughput",
        [
            ("codewords", f"{codewords} x {data_bits} bits", "one decode_batch call"),
            ("scalar decode (est.)", "baseline", f"{scalar_seconds * 1e3:.0f} ms"),
            ("batched decode", ">= 10x faster", f"{batch_seconds * 1e3:.1f} ms ({speedup:.0f}x)"),
        ],
    )


def test_soft_viterbi_batch(benchmark):
    """Soft-metric (LLR) batched Viterbi; antipodal LLRs must match the hard path."""
    rng = np.random.default_rng(2016)
    codewords, data_bits = 64, 192
    bits = rng.integers(0, 2, (codewords, data_bits), dtype=np.uint8)
    noisy = encode_batch(bits) ^ (rng.random((codewords, 2 * data_bits)) < 0.04).astype(np.uint8)
    llrs = 2.0 * noisy.astype(np.float64) - 1.0
    decoder = BatchViterbiDecoder()

    decoded = benchmark(lambda: decoder.decode_batch(llrs, soft=True))
    np.testing.assert_array_equal(decoded, decoder.decode_batch(noisy))


def test_fleet_1000_devices(benchmark, paper_report, monkeypatch):
    """1000-device fleet: the PER model runs once per link and per captured packet, not per packet."""
    devices = 1000
    phy_calls = {"n": 0}
    original = medium_module.wifi_packet_error_rate

    def counting(*args, **kwargs):
        phy_calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(medium_module, "wifi_packet_error_rate", counting)

    def run():
        simulator = FleetSimulator(FleetScenario(num_devices=devices, duration_s=1.0, mac="slotted_aloha"))
        return simulator, simulator.run()

    simulator, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    aggregate = metrics.aggregate()
    medium = simulator.medium
    # Every clean packet and every captured one needs a PER decision.
    captured = medium.phy_calls - (medium.resolutions - medium.collisions)

    assert aggregate.generated > 1000
    assert phy_calls["n"] <= devices + captured

    paper_report(
        "repro.netsim - 1000-device fleet on the heap engine",
        [
            ("devices", "1000", f"{devices}"),
            ("packets generated", "> 1000", f"{aggregate.generated}"),
            ("PER decisions", "clean + captured packets", f"{medium.phy_calls}"),
            ("PER model calls", f"<= devices + captured ({devices + captured})", f"{phy_calls['n']}"),
        ],
    )

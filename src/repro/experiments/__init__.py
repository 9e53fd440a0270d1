"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every module exposes a ``run(...)`` function that returns a plain result
object with the series the corresponding figure plots (or the rows the
table lists), and self-registers with :mod:`repro.api` at import time —
so importing this package populates the experiment registry.  Prefer the
unified front door::

    from repro.api import Runner
    result = Runner().run("fig11", engine="batch")

or, from the shell, ``python -m repro run fig11 --engine batch``.  Whole
campaigns sweep grids of invocations through the same drivers —
``python -m repro run --specs examples/grids/fleet_grid.json --jobs 4
--store out/`` — which is why every ``run`` entry point (and every
payload dataclass it returns) is a module-level definition: worker
processes import drivers by qualified name, whatever the multiprocessing
start method.  The benchmark harness in ``benchmarks/`` and
``examples/reproduce_paper.py`` both go through the registry;
EXPERIMENTS.md (regenerated by ``python -m repro report``) records
paper-vs-measured.

=========================  ============================================
Module                      Paper artefact
=========================  ============================================
``fig06_sideband``          Fig. 6  — SSB vs DSB backscatter spectrum
``fig09_single_tone``       Fig. 9  — BLE single-tone spectra (3 devices)
``fig10_rssi``              Fig. 10 — Wi-Fi RSSI vs distance / TX power
``fig11_per``               Fig. 11 — Wi-Fi packet-error-rate CDF
``fig12_coexistence``       Fig. 12 — iperf throughput under backscatter
``fig13_downlink_ber``      Fig. 13 — downlink BER vs distance
``fig14_zigbee_rssi``       Fig. 14 — ZigBee RSSI CDF
``fig15_contact_lens``      Fig. 15 — contact-lens RSSI vs distance
``fig16_neural_implant``    Fig. 16 — implant RSSI vs distance
``fig17_card_to_card``      Fig. 17 — card-to-card BER vs distance
``table_power``             §3      — 28 µW IC power breakdown
``table_packet_sizes``      §2.3.3  — Wi-Fi payload per BLE advertisement
``mac_scaling``             beyond  — fleet size × MAC sweep, every netsim engine
``coded_ofdm``              beyond  — hard vs soft Viterbi over AWGN
=========================  ============================================
"""

from repro.experiments import (
    coded_ofdm,
    fig06_sideband,
    fig09_single_tone,
    fig10_rssi,
    fig11_per,
    fig12_coexistence,
    fig13_downlink_ber,
    fig14_zigbee_rssi,
    fig15_contact_lens,
    fig16_neural_implant,
    fig17_card_to_card,
    mac_scaling,
    table_packet_sizes,
    table_power,
)

__all__ = [
    "coded_ofdm",
    "fig06_sideband",
    "fig09_single_tone",
    "fig10_rssi",
    "fig11_per",
    "fig12_coexistence",
    "fig13_downlink_ber",
    "fig14_zigbee_rssi",
    "fig15_contact_lens",
    "fig16_neural_implant",
    "fig17_card_to_card",
    "mac_scaling",
    "table_packet_sizes",
    "table_power",
]

"""A complete 802.11-style OFDM PHY implemented from scratch.

This is the "stock WiFi PHY" the paper runs on its WARP radios (§4.3):
20 MHz, 64-point OFDM with 56 occupied subcarriers and a 400 ns short
cyclic prefix, BPSK through 256-QAM, K=7 convolutional coding with
puncturing, block interleaving, scrambling, legacy + HT preambles,
packet detection, CFO estimation, LS channel estimation and 2x2 MIMO
spatial multiplexing.

Layering (bottom-up): params -> modulation/coding -> ofdm -> preamble ->
sync/channel_est/mimo -> rates -> frame -> transceiver.
"""

from repro.phy.params import OfdmParams, WIFI_20MHZ, WIFI_20MHZ_LONG_CP, LTE_10MHZ
from repro.phy.modulation import (
    Modulation,
    BPSK,
    QPSK,
    QAM16,
    QAM64,
    QAM256,
    MODULATIONS,
    modulation_by_name,
)
from repro.phy.ofdm import OfdmModulator, OfdmDemodulator
from repro.phy.preamble import Preamble, ltf_frequency_symbol, stf_time_symbol
from repro.phy.sync import PacketDetector, estimate_cfo, apply_cfo
from repro.phy.channel_est import (canonicalize_channel_timing,
                                    estimate_channel_ls, estimate_mimo_channel)
from repro.phy.mimo import (
    zf_detect,
    mmse_detect,
    mimo_stream_sinrs,
    multiplexing_stream_sinrs,
    effective_rank,
    condition_number_db,
    water_filling,
)
from repro.phy.rates import (
    McsEntry,
    MCS_TABLE,
    highest_mcs_for_snr,
    phy_rate_mbps,
    mimo_phy_rate_mbps,
    shannon_rate_mbps,
)
from repro.phy.frame import PhyFrame, build_ppdu, parse_ppdu_header
from repro.phy.transceiver import (Transmitter, Receiver, MimoReceiver,
                                    TxConfig, RxResult)

__all__ = [
    "OfdmParams",
    "WIFI_20MHZ",
    "WIFI_20MHZ_LONG_CP",
    "LTE_10MHZ",
    "Modulation",
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "QAM256",
    "MODULATIONS",
    "modulation_by_name",
    "OfdmModulator",
    "OfdmDemodulator",
    "Preamble",
    "ltf_frequency_symbol",
    "stf_time_symbol",
    "PacketDetector",
    "estimate_cfo",
    "apply_cfo",
    "canonicalize_channel_timing",
    "estimate_channel_ls",
    "estimate_mimo_channel",
    "zf_detect",
    "mmse_detect",
    "mimo_stream_sinrs",
    "multiplexing_stream_sinrs",
    "effective_rank",
    "condition_number_db",
    "water_filling",
    "McsEntry",
    "MCS_TABLE",
    "highest_mcs_for_snr",
    "phy_rate_mbps",
    "mimo_phy_rate_mbps",
    "shannon_rate_mbps",
    "PhyFrame",
    "build_ppdu",
    "parse_ppdu_header",
    "Transmitter",
    "Receiver",
    "MimoReceiver",
    "TxConfig",
    "RxResult",
]

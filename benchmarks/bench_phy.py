"""Benchmark the batched PHY fast path against the per-packet reference.

Decodes one burst of independently generated, noisy packets three ways:

* ``reference``  — per-packet :meth:`Receiver.receive` with the
  retained pre-refactor scalar Viterbi (``decode_reference``), i.e.
  the per-symbol/per-step Python loops the batched path replaced;
* ``per_packet`` — :meth:`Receiver.receive` as shipped (batched numpy
  inside, but still one packet per call);
* ``batched``    — :meth:`Receiver.receive_batch` on the whole burst
  (header and payload codewords of every packet go through one
  vectorised add-compare-select pass).

All three must produce bit-identical results — the fast path is an
optimisation, not an approximation.  Wall times, throughputs and
speedups are written to a JSON baseline (``BENCH_phy.json`` at the
repo root by default).

Doubles as the CI perf gate: ``--min-speedup X`` exits non-zero when
``batched`` is not at least ``X`` times faster than ``reference``;
``--smoke`` shrinks the burst so the gate stays fast enough for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_phy.py
    PYTHONPATH=src python benchmarks/bench_phy.py --smoke --min-speedup 3.0
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from harness import machine
from repro.phy import Receiver, Transmitter, TxConfig
from repro.utils import awgn_like, make_rng


class _ReferenceViterbi:
    """Proxy forcing the scalar pre-refactor decoder on a Receiver."""

    def __init__(self, inner):
        self._inner = inner

    def decode(self, llrs, terminated=True):
        return self._inner.decode_reference(llrs, terminated=terminated)

    def decode_batch(self, llr_list, terminated=True):
        return [self._inner.decode_reference(llrs, terminated=terminated)
                for llrs in llr_list]

    def __getattr__(self, name):
        return getattr(self._inner, name)


def make_burst(packets, mcs, num_bits, snr_db, seed):
    """Independent noisy packets; returns (list of payloads, list of waves)."""
    cfg = TxConfig(mcs_index=mcs)
    tx = Transmitter(cfg)
    payloads, waves = [], []
    for i in range(packets):
        rng = make_rng(seed * 100_003 + i)
        bits = rng.integers(0, 2, num_bits)
        wave = tx.transmit(bits)[0]
        wave = np.concatenate([np.zeros(120, dtype=complex), wave,
                               np.zeros(40, dtype=complex)])
        noise_power = 10.0 ** (-snr_db / 10.0)
        wave = wave + awgn_like(wave, noise_power, rng)
        payloads.append(bits)
        waves.append(wave)
    return payloads, waves


def _timed(fn, repeats):
    """Best-of-N wall time (seconds) and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _check_identical(label, results, baseline):
    for i, (got, want) in enumerate(zip(results, baseline)):
        if got.success != want.success:
            raise SystemExit(f"FAIL: {label}[{i}] success differs")
        if got.success and not np.array_equal(got.payload_bits,
                                              want.payload_bits):
            raise SystemExit(f"FAIL: {label}[{i}] payload bits differ")


def run(packets, mcs, num_bits, snr_db, seed, repeats):
    print(f"phy benchmark: {packets} packets, mcs={mcs}, "
          f"{num_bits} bits each, {snr_db:.0f} dB SNR")
    payloads, waves = make_burst(packets, mcs, num_bits, snr_db, seed)

    rx = Receiver()
    rx_ref = Receiver()
    rx_ref._viterbi = _ReferenceViterbi(rx_ref._viterbi)

    ref_s, ref_out = _timed(
        lambda: [rx_ref.receive(w) for w in waves], repeats)
    print(f"  reference     {ref_s:8.3f} s")
    pkt_s, pkt_out = _timed(
        lambda: [rx.receive(w) for w in waves], repeats)
    print(f"  per-packet    {pkt_s:8.3f} s")
    batch_s, batch_out = _timed(
        lambda: rx.receive_batch(waves), repeats)
    print(f"  batched       {batch_s:8.3f} s")

    decoded = sum(1 for r in ref_out if r.success)
    for i, r in enumerate(ref_out):
        if r.success and not np.array_equal(r.payload_bits, payloads[i]):
            raise SystemExit(f"FAIL: packet {i} decoded to wrong payload")
    _check_identical("per_packet", pkt_out, ref_out)
    _check_identical("batched", batch_out, ref_out)
    print(f"  results bit-identical across all three paths "
          f"({decoded}/{packets} packets decoded)")

    total_bits = packets * num_bits
    record = {
        "packets": packets,
        "mcs": mcs,
        "bits_per_packet": num_bits,
        "snr_db": snr_db,
        "seed": seed,
        "repeats": repeats,
        "decoded": decoded,
        "reference_s": round(ref_s, 4),
        "per_packet_s": round(pkt_s, 4),
        "batched_s": round(batch_s, 4),
        "reference_mbps": round(total_bits / ref_s / 1e6, 3),
        "batched_mbps": round(total_bits / batch_s / 1e6, 3),
        "speedup_batched_vs_reference": round(ref_s / batch_s, 2),
        "speedup_batched_vs_per_packet": round(pkt_s / batch_s, 2),
        "speedup_per_packet_vs_reference": round(ref_s / pkt_s, 2),
        "machine": machine(),
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=32)
    parser.add_argument("--mcs", type=int, default=4)
    parser.add_argument("--bits", type=int, default=1200)
    parser.add_argument("--snr-db", type=float, default=28.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="small burst, one repeat (CI-sized run)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_phy.json"))
    parser.add_argument("--no-write", action="store_true",
                        help="measure and gate without rewriting the "
                             "JSON baseline (CI mode)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless batched beats the reference "
                             "decoder by at least this factor")
    args = parser.parse_args(argv)

    if args.smoke:
        args.packets = min(args.packets, 10)
        args.repeats = 1

    record = run(args.packets, args.mcs, args.bits, args.snr_db,
                 args.seed, args.repeats)
    if not args.no_write:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.out}")
    speedup = record["speedup_batched_vs_reference"]
    print(f"  batched vs reference: {speedup:.2f}x  "
          f"(vs per-packet: {record['speedup_batched_vs_per_packet']:.2f}x)")

    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: batched speedup {speedup:.2f}x "
              f"< required {args.min_speedup:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

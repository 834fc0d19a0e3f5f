"""Reference-vs-fast-path throughput for the precomputed-table kernels.

Measures the same primitive on both sides of the
``repro.crypto.fastpath`` switch and asserts the speedups the fast
paths exist to deliver (paper §3.2: the security processing gap —
wall-clock headroom is what lets the attack simulators run enough
traces to matter).

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_fastpath.py`` — prints a
  reference/fast/speedup table;
* ``PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py`` —
  asserts each speedup floor.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.crypto import fastpath
from repro.crypto.a51 import A51
from repro.crypto.aes import AES
from repro.crypto.des import DES
from repro.crypto.grain import Grain
from repro.crypto.hmac import hmac
from repro.crypto.md5 import md5
from repro.crypto.modes import CBC, ECB
from repro.crypto.sha1 import sha1
from repro.crypto.tdes import TripleDES
from repro.crypto.trivium import Trivium

KEY16 = bytes(range(16))
KEY8 = bytes(range(8))
KEY24 = bytes(range(24))
IV16 = bytes(16)


def _aes_cbc(payload: bytes) -> bytes:
    return CBC(AES(KEY16), IV16).encrypt(payload)


def _des_ecb(payload: bytes) -> bytes:
    return ECB(DES(KEY8)).encrypt(payload)


def _3des_ecb(payload: bytes) -> bytes:
    return ECB(TripleDES(KEY24)).encrypt(payload)


def _hmac_sha1(payload: bytes) -> bytes:
    return hmac(b"bench mac key", payload)


def _a51(payload: bytes) -> bytes:
    return A51(bytes(range(11))).process(payload)


def _grain(payload: bytes) -> bytes:
    return Grain(bytes(range(18))).process(payload)


def _trivium(payload: bytes) -> bytes:
    return Trivium(bytes(range(20))).process(payload)


# name, workload, payload bytes on the *reference* side, required speedup.
# Reference payloads are kept small (the whole point is that the
# reference loops are slow); throughput normalises them out.
WORKLOADS: List[Tuple[str, Callable[[bytes], bytes], int, float]] = [
    ("AES-128-CBC", _aes_cbc, 4 * 1024, 5.0),
    ("DES-ECB", _des_ecb, 4 * 1024, 5.0),
    ("3DES-ECB", _3des_ecb, 2 * 1024, 5.0),
    ("SHA-1", sha1, 64 * 1024, 5.0),
    ("MD5", md5, 64 * 1024, 5.0),
    ("HMAC-SHA1", _hmac_sha1, 64 * 1024, 5.0),
    ("A5/1", _a51, 2 * 1024, 3.0),
    ("Grain v1", _grain, 1024, 10.0),
    ("Trivium", _trivium, 1024, 20.0),
]

FAST_SCALE = 16  # fast side gets a proportionally larger payload


def _throughput(fn: Callable[[bytes], bytes], payload: bytes,
                min_seconds: float = 0.2) -> float:
    """Bytes/second, timed over at least ``min_seconds`` of work."""
    fn(payload)  # warm up (table construction, hashlib binding)
    iterations = 0
    start = time.perf_counter()
    while True:
        fn(payload)
        iterations += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return iterations * len(payload) / elapsed


def measure(name: str) -> Tuple[float, float, float]:
    """(reference B/s, fast B/s, speedup) for one named workload."""
    for wl_name, fn, ref_size, _floor in WORKLOADS:
        if wl_name == name:
            break
    else:
        raise KeyError(name)
    with fastpath.force(False):
        ref = _throughput(fn, b"\xA5" * ref_size)
    with fastpath.force(True):
        fast = _throughput(fn, b"\xA5" * (ref_size * FAST_SCALE))
    return ref, fast, fast / ref


def _required_speedup(name: str) -> float:
    return next(floor for wl, _f, _s, floor in WORKLOADS if wl == name)


def test_aes_cbc_speedup():
    assert measure("AES-128-CBC")[2] >= _required_speedup("AES-128-CBC")


def test_des_ecb_speedup():
    assert measure("DES-ECB")[2] >= _required_speedup("DES-ECB")


def test_3des_ecb_speedup():
    assert measure("3DES-ECB")[2] >= _required_speedup("3DES-ECB")


def test_sha1_speedup():
    assert measure("SHA-1")[2] >= _required_speedup("SHA-1")


def test_md5_speedup():
    assert measure("MD5")[2] >= _required_speedup("MD5")


def test_hmac_sha1_speedup():
    assert measure("HMAC-SHA1")[2] >= _required_speedup("HMAC-SHA1")


def test_a51_speedup():
    assert measure("A5/1")[2] >= _required_speedup("A5/1")


def test_grain_speedup():
    assert measure("Grain v1")[2] >= _required_speedup("Grain v1")


def test_trivium_speedup():
    assert measure("Trivium")[2] >= _required_speedup("Trivium")


def main() -> None:
    print(f"{'workload':<12} {'reference':>12} {'fast':>12} {'speedup':>9}")
    print("-" * 48)
    for name, _fn, _size, floor in WORKLOADS:
        ref, fast, speedup = measure(name)
        flag = "" if speedup >= floor else f"  (< {floor:.0f}x floor!)"
        print(f"{name:<12} {ref / 1e3:>9.1f}kB/s {fast / 1e6:>9.2f}MB/s "
              f"{speedup:>8.1f}x{flag}")


if __name__ == "__main__":
    main()

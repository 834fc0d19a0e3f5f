"""The table-driven A5/1 and bulk-window Grain v1 fast paths against
their reference loops.

* every entry of the A5/1 step table against four
  :meth:`A51._clock_majority` steps, and every output- and
  feedback-table entry against single clocks;
* the batched A5/1 key/frame schedule against the bit-serial one;
* keystream bytes and :meth:`save_state` snapshots, fast against
  ``fastpath.force(False)``, across chunk and byte boundaries;
* the dispatch gate: a cipher with a recorder attached never enters a
  fast kernel.
"""

import random

import pytest

from repro.crypto import a51, fastpath, grain
from repro.crypto.a51 import A51
from repro.crypto.grain import Grain
from repro.crypto.trace import TraceRecorder

LENGTHS = list(range(71)) + [1023, 1024, 1025]


def _clock_windows(index):
    """Registers whose clocking windows (bits 8..5 of R1, 10..7 of R2
    and R3) hold the three nibbles of ``index``.  Bits 1..0 are ``10``
    so no register is a fixed point of a clock (all-0 or all-1), which
    makes a register's move visible as a change of value."""
    rng = random.Random(index)
    r1 = (rng.getrandbits(19) & ~0x1E3) | (index >> 8) << 5 | 0b10
    r2 = (rng.getrandbits(22) & ~0x783) | ((index >> 4) & 0xF) << 7 | 0b10
    r3 = (rng.getrandbits(23) & ~0x783) | (index & 0xF) << 7 | 0b10
    return r1, r2, r3


class TestA51Tables:
    def test_every_step_entry_matches_four_majority_clocks(self):
        steps = a51._build_tables()[0]
        assert len(steps) == 4096
        for index in range(4096):
            regs = _clock_windows(index)
            patterns = [0, 0, 0]
            for _ in range(4):
                moved = A51._clock_majority(*regs)
                for reg in range(3):
                    patterns[reg] = patterns[reg] << 1 | (
                        moved[reg] != regs[reg])
                regs = moved
            counts = [bin(pattern).count("1") for pattern in patterns]
            want = tuple([4 - count for count in counts]
                         + [pattern << 5 for pattern in patterns])
            assert steps[index] == want, hex(index)

    def test_every_output_entry_matches_single_clocks(self):
        """Pattern p moves one register on the clocks whose bit is set;
        the entry holds the bits its top bit shows after each clock."""
        outputs = a51._build_tables()[1]
        assert len(outputs) == 512
        for index in range(512):
            pattern, window = index >> 5, index & 0x1F
            r1 = window << 14 | 0b10
            nibble = 0
            for clock in range(4):
                if (pattern >> (3 - clock)) & 1:
                    r1 = A51._clock_all(r1, 0, 0)[0]
                nibble = nibble << 1 | (r1 >> 18) & 1
            assert outputs[index] == nibble, index

    def test_step_entries_are_interned(self):
        """The table stays compact: 4096 references to 256 tuples."""
        steps = a51._build_tables()[0]
        assert len({id(entry) for entry in steps}) == 256

    @pytest.mark.parametrize("reg,low", [(0, 10), (1, 17), (2, 17)],
                             ids=["r1", "r2", "r3"])
    def test_every_feedback_entry_matches_four_clocks(self, reg, low):
        """Clocking a register whose bits below ``low`` are zero four
        times leaves exactly the four feedback bits in bits 3..0 (R3's
        low tap reads zeros, which its table leaves out)."""
        table = a51._build_tables()[2 + reg]
        for value, entry in enumerate(table):
            regs = [0, 0, 0]
            regs[reg] = value << low
            for _ in range(4):
                regs = A51._clock_all(*regs)
            assert regs[reg] & 15 == entry, value


class TestA51Schedule:
    def test_fast_schedule_matches_reference(self):
        rng = random.Random(2003)
        for trial in range(500):
            key = bytes(rng.getrandbits(8) for _ in range(8))
            # A quarter of the frames exceed the 22-bit frame number.
            frame = rng.getrandbits(24 if trial % 4 == 0 else 22)
            assert a51._schedule_fast(key, frame) == A51._schedule(
                key, frame), (key.hex(), frame)

    def test_constructor_uses_fast_schedule(self):
        key = bytes(range(3, 14))
        with fastpath.force(False):
            reference = A51(key)
        with fastpath.force(True):
            fast = A51(key)
        assert fast.save_state() == reference.save_state()


def _blob(cipher, length):
    size = 11 if cipher is A51 else 18
    return bytes((length * 37 + 11 * i) % 256 for i in range(size))


@pytest.mark.parametrize("cipher", [A51, Grain], ids=["a51", "grain"])
@pytest.mark.parametrize("length", LENGTHS)
def test_fast_keystream_and_state_match_reference(cipher, length):
    """Two reads: ``length`` bytes, then 3 more, so every length is
    also checked starting from a leftover Grain byte."""
    key = _blob(cipher, length)
    with fastpath.force(True):
        fast = cipher(key)
    with fastpath.force(False):
        reference = cipher(key)
    assert fast.save_state() == reference.save_state()
    for size in (length, 3):
        with fastpath.force(True):
            got = fast.keystream(size)
        with fastpath.force(False):
            want = reference.keystream(size)
        assert got == want
        assert fast.save_state() == reference.save_state()


def test_grain_fast_read_consumes_the_leftover_byte():
    key = _blob(Grain, 5)
    with fastpath.force(True):
        cipher = Grain(key)
        whole = cipher.keystream(9)
        assert len(cipher.save_state()[2]) == 1
    with fastpath.force(True):
        split = Grain(key)
        assert split.keystream(1) + split.keystream(8) == whole
        assert split.save_state() == cipher.save_state()


def _explode(*args, **kwargs):
    raise AssertionError("fast kernel entered with a recorder attached")


@pytest.mark.parametrize("cipher,kernel", [
    (A51, (a51, "_majority_nibbles")),
    (Grain, (grain, "_windows")),
], ids=["a51", "grain"])
def test_recorder_forces_reference_path(cipher, kernel, monkeypatch):
    key = _blob(cipher, 7)
    with fastpath.force(False):
        want = cipher(key).keystream(33)
    probed = cipher(key)
    probed.recorder = TraceRecorder()
    monkeypatch.setattr(*kernel, _explode)
    with fastpath.force(True):
        assert probed.keystream(33) == want

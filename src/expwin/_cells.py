"""The "%.12g" text of float64 columns in numpy arithmetic.  With
e = floor(log10|x|), |x| times 10**(11 - e) correctly rounded is within
2**-12 of |x| * 10**(11 - e), and is rounded to the 12-digit integer q; its
digits come from a table of 4-digit chunks.  A cell is four little-endian
words, NUL for an absent byte: sign and "0.000" prefix, the 12 digits with
the '.' shifted in, exponent and separator.  Zero, inf, NaN, |e| > EMAX, a
product within 2**-12 of a half (ties among them) and q = 10**12, a carry into e, are %-formatted."""
import functools
from array import array

import numpy as np

WORD = np.dtype("<u8")
EMAX = 277  # |e| limit of the array path; 10**(11 - e) is finite and normal within it


@functools.cache
def tables():
    """Per 4-digit chunk its ASCII, in the high half with trailing zeros NUL;
    per e + EMAX, the 7 ``_exponent_words`` rows and 10**(11 - e), correctly
    rounded by float() from its decimal text.  Built in Python, faulting in no numpy code."""
    chunks = bytearray(40000)
    for i in range(4):  # digit i of chunk c is c // 10**(3 - i) % 10
        chunks[i::4] = b"".join(b"%d" % d * 10 ** (3 - i) for d in range(10)) * 10**i
    stripped = bytearray(chunks)
    for k in range(1, 5):  # the k-th digit from the right of every multiple of 10**k
        stripped[4 - k :: 4 * 10**k] = bytes(10 ** (4 - k))
    digits = memoryview(bytearray(80000)).cast("I")
    digits[0::2], digits[1::2] = memoryview(chunks).cast("I"), memoryview(stripped).cast("I")
    by_e = array("Q", _exponent_words())  # 8-byte words in the host's order, as np.uint64 reads them
    powers = array("d", [float("1e%d" % (11 - e)) for e in range(-EMAX, EMAX + 1)])
    return np.frombuffer(digits, WORD), np.frombuffer(by_e, np.uint64).reshape(7, -1), np.frombuffer(powers)


def _exponent_words() -> list:
    """Per e + EMAX, the masks of the integer digits in the head and tail
    words, '.' in either, the exponent word and the plus and minus prefix
    words, as the integers of 7 rows of 2 * EMAX + 1 words, row by row."""
    word = lambda s: int.from_bytes(s.encode(), "little")
    by_e = []
    for e in range(-EMAX, EMAX + 1):
        fixed = -4 <= e < 12  # "%.12g" writes no exponent
        dot = max(e + 1, 0) if fixed else 1  # digits before the '.'
        point = 46 << 8 * (dot % 8) if dot else 0
        exp = "" if fixed else "e%+03d" % e
        zeros = "0." + "0" * (-1 - e) if e < 0 and fixed else ""
        by_e.append([(1 << 8 * min(dot, 8)) - 1, (1 << 8 * max(dot - 8, 0)) - 1, point * (dot < 8),
                     point * (dot >= 8), word(exp), word(zeros), word("-" + zeros)])
    return [v for row in zip(*by_e) for v in row]


def round12(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """q's digits, a word of 8 and one of 4 with trailing zeros NUL; e + EMAX;
    and where they hold.  In float64, whose loops the spectrum already ran.
    For p < 2**40, p = |x| * fl(10**(11 - e)) misses |x| * 10**(11 - e) by
    under 2**40 * 2**-53 + ulp(p) / 2 <= 2**-13 + 2**-14, so p rounds as that
    product does wherever p lies 2**-12 or more from a half."""
    digits, _, powers = tables()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= EMAX
    p, ei = np.where(ok, a, 1.0), np.where(ok, e, 0.0).astype(np.intp) + EMAX
    del a, e  # held arrays raise the heap high-water mark the process keeps
    p *= powers.take(ei)
    q = np.rint(p)
    ok &= (np.abs(p - q) <= 0.5 - 2.0**-12) & (q >= 1e11) & (q < 1e12)
    np.copyto(q, 1e11, where=~ok)  # digits the fallback overwrites, in range of the table
    c12 = np.floor(q / 1e4)  # exact: q / 1e4 is 1e-4 or more below the next integer
    c1 = np.floor(c12 / 1e4)
    c2, c3 = (c12 - c1 * 1e4).astype(np.intp), (q - c12 * 1e4).astype(np.intp)
    # a chunk's trailing zeros are NUL where no nonzero chunk follows it
    head = digits.take(c1.astype(np.intp)) >> np.where(c2 + c3 == 0, 32, 0).astype(WORD) & np.uint64(0xFFFFFFFF)
    head |= digits.take(c2) >> np.where(c3 == 0, 32, 0).astype(WORD) << np.uint64(32)
    return head, digits.take(c3) >> np.uint64(32), ei, ok


def write(x: np.ndarray, sep: str, out: np.ndarray) -> None:
    """Write the "%.12g" text of each element of x, then sep, to out's rows."""
    by_e = tables()[1]
    head, tail, ei, ok = round12(x)
    low_head, low_tail = by_e[0].take(ei), by_e[1].take(ei)
    head |= low_head & np.uint64(0x3030303030303030)  # an integer part keeps its zeros
    tail |= low_tail & np.uint64(0x30303030)
    rest_head, rest_tail = head & ~low_head, tail & ~low_tail
    point = (rest_head | rest_tail).astype(bool)  # a digit follows the '.'
    out[:, 0] = by_e[5:].reshape(-1).take(ei + np.signbit(x) * by_e.shape[1])  # plus, then minus prefixes
    out[:, 1] = (head & low_head) | rest_head << np.uint64(8) | np.where(point, by_e[2].take(ei), 0)
    out[:, 2] = (tail & low_tail) | rest_tail << np.uint64(8) | rest_head >> np.uint64(56)
    out[:, 2] |= np.where(point, by_e[3].take(ei), 0)
    out[:, 3] = by_e[4].take(ei) | np.uint64(ord(sep)) << np.uint64(56)
    for k in np.flatnonzero(~ok).tolist():
        out[k] = np.frombuffer(("%.12g" % x[k]).encode().ljust(31, b"\0") + sep.encode(), WORD)


@functools.lru_cache(maxsize=1)
def grid(rows: int, divisor: int) -> np.ndarray:
    """The encoded cells of k/divisor, k < rows, each then ",", kept for the last grid written."""
    cells = np.empty((rows, 4), WORD)
    write(np.arange(rows) / divisor, ",", cells)
    cells.flags.writeable = False
    return cells

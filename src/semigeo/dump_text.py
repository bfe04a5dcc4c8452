"""The text of tensor dump values: csv quoting, the sorting of components
by the bits of their values, and each row's value texts.

``grid_field.write_tensor_dump`` lays out the lines; this module decides
which values are turned to ``repr`` text and how often.
"""

import math
import operator

import numpy as np


# Special characters of the csv module's default dialect: a field holding
# one is quoted, with inner quotes doubled (csv.QUOTE_MINIMAL).
_CSV_SPECIAL = frozenset(',"\r\n')


def csv_field(text):
    """``text`` as one delimited field, quoted as ``csv.writer`` quotes it."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def take(indices):
    """``seq -> tuple(seq[i] for i in indices)``, one C-level call for two or more."""
    if len(indices) < 2:
        return lambda seq: tuple(seq[i] for i in indices)
    return operator.itemgetter(*indices)


def classify(components):
    """Sort node arrays of float64 into constant, repeated and distinct.

    Returns ``(kinds, rows)``.  ``kinds[c]`` is the ``repr`` text of
    component c's value when every node holds the same bits; otherwise it
    is a position d in ``rows``, the list of components that first hold
    each distinct set of bits, and c's bits equal those of ``rows[d]``
    at every node.  Bits are compared as int64, so -0.0 is not 0.0 and
    NaNs of different payloads differ; memoryview comparisons allocate
    nothing.
    """
    kinds, rows, bits_of = [], [], []
    candidates = {}  # (first, last) bits -> positions in rows
    for c, values in enumerate(components):
        bits = memoryview(values.view(np.int64).reshape(-1))
        if bits[1:] == bits[:-1]:
            kinds.append(repr(float(values.flat[0])))
            continue
        same = candidates.setdefault((bits[0], bits[-1]), [])
        d = next((d for d in same if bits_of[d] == bits), None)
        if d is None:
            d = len(rows)
            rows.append(c)
            bits_of.append(bits)
            same.append(d)
        kinds.append(d)
    return kinds, rows


# Values the tensor dump writer reads from its tubes at once: whole x1
# planes, or one plane where a plane holds more.
BLOCK_VALUES = 1100


def row_texts(components):
    """The ``repr`` texts of the (tube, index) ``components`` (at least one),
    one list per row of the last grid axis in grid order, each in (node,
    component) order.

    The rows are copied into one array per block of whole x1 planes.
    Whether values repeat is read once, from the first x1 plane.  When
    some component repeats a bit pattern there, as one constant across
    the transverse nodes or symmetric in two of them does, each block
    turns each of its distinct int64 bit patterns to text once, so -0.0
    and 0.0, or two NaN payloads, keep their own texts.  Otherwise every
    value is turned to text, one row at a time, and no dict is built.
    """
    tube, pos = components[0]
    shape = tube.dense.shape[len(pos) :]
    width = shape[-1] * len(components)
    step = max(1, BLOCK_VALUES // (width * math.prod(shape[1:-1])))
    firsts = (tube.dense[pos + (0,)].view(np.int64).reshape(-1) for tube, pos in components)
    repeats = any(len(set(memoryview(bits))) < len(bits) for bits in firsts)
    for start in range(0, shape[0], step):
        block = np.empty((min(step, shape[0] - start), *shape[1:], len(components)))
        for d, (tube, pos) in enumerate(components):
            block[..., d] = tube.dense[pos][start : start + step]
        keys = values = memoryview(block.reshape(-1))
        text = repr
        if repeats:
            keys = memoryview(block.reshape(-1).view(np.int64))
            distinct = dict(zip(keys, values))  # a value per distinct bit pattern
            text = dict(zip(distinct, map(repr, distinct.values()))).__getitem__
        for end in range(width, len(keys) + 1, width):
            yield list(map(text, keys[end - width : end]))

"""Golden fixture for the repo linter: one deliberate violation per rule.

This file is parsed (never imported) by ``tests/test_check_linter.py``,
which asserts the linter reports *exactly* the violations marked below —
no more, no fewer.  Line numbers matter: keep the layout stable or update
the expected findings in the test.
"""

import time

import numpy as np

from repro import nn
from repro.nn import Module, init
from repro.tensor import Tensor


def bad_rng():
    np.random.seed(0)                     # line 19: R001
    values = np.random.rand(3)            # line 20: R001
    rng = np.random.default_rng()         # line 21: R001 (unseeded)
    seeded = np.random.default_rng(7)     # ok: explicit seed
    quiet = np.random.randn(2)  # lint: disable=R001
    return values, rng, seeded, quiet


class MissingSuper(Module):
    def __init__(self):                   # line 28: R002
        self.weight = nn.Parameter(init.zeros(4))


class RawParameters(Module):
    def __init__(self):
        super().__init__()
        self.weight = init.xavier_uniform(3, 3)              # line 35: R003
        self.bias = Tensor(np.zeros(3), requires_grad=True)  # line 36: R003
        self.gain = nn.Parameter(init.ones(3))               # ok: registered


def bad_data_writes(t):
    t.data = np.zeros(3)                  # line 41: R004
    t.data += 1.0                         # line 42: R004
    t.data[0] = 5.0                       # line 43: R004 (slice write)
    t.copy_(np.zeros(3))                  # ok: version-counted
    t.data = np.ones(3)  # lint: disable
    return t


def bad_clocks():
    start = time.time()                   # line 50: R005
    tick = time.perf_counter()            # line 51: R005
    return start, tick


def bad_persistence(path, arrays):
    np.savez(path, **arrays)              # line 56: R006
    np.savez_compressed(path, **arrays)   # line 57: R006
    np.savez(path, **arrays)  # lint: disable=R006


def bad_engine_patches(fn):
    setattr(Tensor, "exp", fn)            # line 62: R012
    Tensor.exp = fn                       # line 63: R012

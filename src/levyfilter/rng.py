"""Labeled, counter-based random substreams.

Every stochastic routine in the package draws from a stream derived from
one master seed plus a tuple of labels (strings or small ints).  Streams
with distinct labels are independent, and the derivation depends only on
the labels - not on creation order or thread schedule - so runs are
reproducible under any execution interleaving.

Labels in use across the package:

    ("x0",) ("brownian",)               initial state and Brownian
                                        increments of a path or a batch
    ("signal-jumps",) ("obs-candidates",) ("obs-thinning",)
                                        a path's two stream seeds and its
                                        thinning uniforms
    ("poisson", channel)                a stream's count, times and marks
    ("jump-counts",) ("jump-marks",) ("thinning",)    a batch's jumps
    ("frozen-marks", dim)               frozen mark samples (compensators)
    ("hypotheses",)                     probe points of the screen
    ("replica", i)                      per-replica seeds in multi-run
                                        drivers; each derives ("filter",)
                                        and ("prior-mc",)
    ("prior",) ("particle-brownian",) ("particle-jump-counts",)
    ("particle-jump-marks",) ("resample-{k}",)        the particle filter
    ("oracle-prior",) ("oracle-noise",) ("oracle-jumps",)     the oracle
"""

import zlib

import numpy as np


def _label_words(labels):
    words = []
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            words.append(int(lab) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(lab).encode("utf8")))
    return tuple(words)


def substream(master_seed, *labels):
    """Return a counter-based (Philox) generator for (master_seed, labels)."""
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**128 - 1),
                                spawn_key=_label_words(labels))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed, *labels):
    """Collapse (master_seed, labels) into a single child seed integer."""
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**128 - 1),
                                spawn_key=_label_words(labels))
    return int(ss.generate_state(2, np.uint64)[0])

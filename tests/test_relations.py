"""Oracle-free relations between artifacts: they check the bookkeeping the
compiled schemes add to DeepLIFT (the one-row seed, the mean over reference
rows, per-row routing and the stacked layout) without an oracle or finite
differences.

Antisymmetry: swapping the sample and a single reference negates every Δ and
every routed share, and IEEE negation is exact, so φ(x; r) = −φ(r; x) bit
for bit.  The others hold within a few units of the dtype's roundoff,
relative to max |φ|.  Split: φ over 16 references is the 5/11-weighted mean
of φ over the first 5 and over the other 11.  Permutation: φ does not
depend on the order of the references.  Repetition: φ over the first 4
references twice is φ over those 4, and φ over one reference twice is φ
over that one.
"""

from functools import cache

import numpy as np
import pytest

import graphlift as gl
from graphlift.cli import cast_model

NETS = [e.name for e in gl.build_corpus()] + list(gl.MICRO_FAMILIES)

# the split's gap, in units of the dtype's roundoff; at most 3.4 were
# measured in float64 and 3.1 in float32 over these nets
SPLIT_UNITS = 4
# the other gaps, in the same units, with the largest measured over these
# nets, both schemes and both dtypes: permuted 3.9 (the naive float64
# plain_deep), the first 4 repeated 1.9, one reference repeated 7.1 (the
# optimized float32 scaled_add_mul; its per-row arithmetic changes with the
# batch shape, while the mean of two equal rows is exact)
PERMUTE_UNITS = 4
REPEAT_UNITS = 2
ONE_ROW_UNITS = 8
# the order of the 16 references in the permutation relation
PERMUTATION = tuple(np.random.default_rng(7).permutation(16).tolist())


@cache
def net(name, dtype):
    """(model, sample, 16 random references) of a corpus or micro net."""
    if name in gl.MICRO_FAMILIES:
        micro = gl.micro_net(name, dtype=dtype)
        model, sample = micro.model, micro.sample
    else:
        entry = gl.corpus_entry(name)
        model, sample = cast_model(entry.model, dtype), entry.sample.astype(dtype)
    return model, sample, gl.random_references(model, 16, seed=7)


def phi(model, references, sample, scheme):
    art = gl.compile_explainer(model, references, scheme=scheme)
    return gl.explain(art, sample).phi.array


@cache
def phi_over(name, dtype, scheme, rows):
    """φ of a net's sample over the references at the indices ``rows``, in
    float64."""
    model, x, refs = net(name, dtype)
    return phi(model, refs[list(rows)], x, scheme).astype(np.float64)


def assert_within(want, got, dtype, units):
    roundoff = np.finfo(dtype).eps / 2
    assert np.abs(want - got).max() <= units * roundoff * np.abs(want).max()


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", NETS)
def test_swapping_sample_and_reference_negates_phi_exactly(name, dtype, scheme):
    model, x, refs = net(name, dtype)
    r = refs[:1]
    forward, swapped = phi(model, r, x, scheme), phi(model, x, r, scheme)
    assert np.any(forward != 0.0)
    assert np.array_equal(forward, -swapped)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", NETS)
def test_phi_over_references_is_the_weighted_mean_of_its_parts(name, dtype,
                                                               scheme):
    whole = phi_over(name, dtype, scheme, tuple(range(16)))
    parts = (5 * phi_over(name, dtype, scheme, tuple(range(5)))
             + 11 * phi_over(name, dtype, scheme, tuple(range(5, 16)))) / 16
    assert_within(whole, parts, dtype, SPLIT_UNITS)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", NETS)
def test_phi_does_not_depend_on_the_order_of_the_references(name, dtype,
                                                            scheme):
    assert_within(phi_over(name, dtype, scheme, tuple(range(16))),
                  phi_over(name, dtype, scheme, PERMUTATION), dtype,
                  PERMUTE_UNITS)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", NETS)
def test_repeating_the_references_leaves_phi(name, dtype, scheme):
    four = (0, 1, 2, 3)
    assert_within(phi_over(name, dtype, scheme, four),
                  phi_over(name, dtype, scheme, four * 2), dtype, REPEAT_UNITS)


@pytest.mark.parametrize("scheme", ["optimized", "naive"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", NETS)
def test_one_reference_repeated_gives_its_phi(name, dtype, scheme):
    assert_within(phi_over(name, dtype, scheme, (0,)),
                  phi_over(name, dtype, scheme, (0, 0)), dtype, ONE_ROW_UNITS)

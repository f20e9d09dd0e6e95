"""Property checks on random small images.

The singular homology (streamed and materialized) and the c1 homology must
agree on every image, and dimension() must match the elementary cubes that
enumerate_elementary_cubes lists.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from dighom import (
    DigitalImage,
    build_c1_complex,
    build_singular_complex,
    dimension,
    enumerate_elementary_cubes,
    homology_through,
    singular_homology,
)


def images(box):
    cells = list(product(*(range(k) for k in box)))
    return st.sets(st.sampled_from(cells), min_size=1).map(
        lambda pts: DigitalImage(len(box), sorted(pts)))


# random 2D images in a 3x3 box and 3D images in a 2x2x2 box
IMAGES = st.one_of(images((3, 3)), images((2, 2, 2)))


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_pipelines_agree(X):
    groups = singular_homology(X, 1)
    assert groups == homology_through(build_singular_complex(X, 1), 1)
    assert groups == homology_through(build_c1_complex(X).complex, 1)


@settings(derandomize=True, deadline=None)
@given(IMAGES)
def test_dimension_is_the_top_nonempty_degree(X):
    top = max(q for q in range(X.ambient_dim + 1) if enumerate_elementary_cubes(X, q))
    assert dimension(X) == top

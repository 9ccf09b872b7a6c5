import pytest

from gpdkit.crossed import automorphism_xmod, from_normal_subgroup
from gpdkit.dgt import lambda_functor, square_model
from gpdkit.finite import (
    cyclic_group,
    disjoint_union,
    even_elements,
    group_as_groupoid,
    interval_finite_groupoid,
    symmetric_group,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def a3s3(s3):
    return from_normal_subgroup(s3, even_elements(s3), name="a3s3")


@pytest.fixture(scope="session")
def a3s3_model(a3s3):
    return lambda_functor(a3s3)


@pytest.fixture(scope="session")
def aut_s3(s3):
    return automorphism_xmod(s3)


@pytest.fixture(scope="session")
def aut_s3_model(aut_s3):
    return lambda_functor(aut_s3)


@pytest.fixture(scope="session")
def aut_c3_model():
    # C3 -> Aut(C3): 24 squares; mu is trivial, so any element fills a
    # commuting boundary and the unconjugated pasting stays in the model
    return lambda_functor(automorphism_xmod(cyclic_group(3)))


@pytest.fixture(scope="session")
def c2_in_c2_model():
    # C2 -> C2, the identity: 16 squares, each boundary has one filler
    c2 = cyclic_group(2)
    return lambda_functor(from_normal_subgroup(c2, c2.elements, name="c2c2"))


@pytest.fixture(scope="session")
def sq_s3(s3):
    return square_model(group_as_groupoid(s3, name="s3"))


@pytest.fixture(scope="session")
def sq_c2():
    return square_model(group_as_groupoid(cyclic_group(2), name="c2"))


@pytest.fixture(scope="session")
def sq_interval_s3(s3):
    # three objects: 16 interval squares beside the 216 of S3, so squares
    # per edge pair differ from class to class
    return square_model(disjoint_union(interval_finite_groupoid(), group_as_groupoid(s3, name="s3")))

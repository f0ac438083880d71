"""Public inputs outside a constructor's or a function's domain are refused
with a message that names the fault."""

import dataclasses

import pytest

from cechstrat import (
    Ball,
    Filtration,
    PLPath,
    PointConfig,
    RanPoint,
    SafeBall,
    SimplicialComplex,
    SimplicialMap,
    cech_path,
    entrance_map,
    enumerate_classes,
    make_complex,
    r2_prime,
    set_distance,
    zigzag,
)

PAIR = PointConfig(1, ((0.0,), (1.0,)))
TRIANGLE = PointConfig(2, ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8)))


def two_tracks_to(second):
    """Two tracks that stand at 0.0 on one point until t = 0.99, the
    second taking the waypoints ``second``, at a radius of 0.1 throughout."""
    return PLPath(1, (0.0, 0.99, 1.0), (((0.0,),) * 3, second), (0.1,) * 3)


def broken_zigzag(**changes):
    """The triangle's growth zigzag with ``changes`` made to its fields."""
    z = zigzag(cech_path(TRIANGLE, 0.9), 0.01)
    fields = {f.name: getattr(z, f.name) for f in dataclasses.fields(z)}
    fields.update({name: change(fields[name]) for name, change in changes.items()})
    return type(z)(**fields)


def not_onto(maps):
    """``maps`` with the first map's images all sent to vertex 0."""
    (left, right), *rest = maps
    folded = SimplicialMap(left.source, left.target, (0,) * left.source.n_vertices)
    return ((folded, right), *rest)


REFUSALS = {
    "entrance_map_before_0": (
        lambda: entrance_map(cech_path(PAIR, 0.9), -0.5, 0.5),
        r"path parameters must lie in \[0, 1\]"),
    "entrance_map_past_1": (
        lambda: entrance_map(cech_path(PAIR, 0.9), 0.5, 1.5),
        r"path parameters must lie in \[0, 1\]"),
    # the second track leaves the first just after t = 0.99, past the last
    # spot check of the moving stretch (t = 31/32), so the label change is
    # missed and the renaming to t = 0.998046875 finds the tracks parted
    "entrance_map_tracks_split": (
        lambda: entrance_map(two_tracks_to(((0.0,), (0.0,), (1.0,))), 0.0, 1.0),
        r"tracks split between t=0\.0 and t=0\.998046875; label constancy violated"),
    # the same, from two points 0.1 apart: their edge breaks past the last
    # spot check, so the renaming maps it onto two points
    "entrance_map_renaming_not_simplicial": (
        lambda: entrance_map(two_tracks_to(((0.1,), (0.1,), (1.0,))), 0.0, 1.0),
        "renaming map is not simplicial; label constancy violated"),
    # the third point runs at 1.5e6 per unit time from its edge with the
    # second into an edge with the fourth; both are critical for under
    # 1e-14, inside the final bracket of 1e-13, so bisection sees a path on
    # three vertices and a point turn into two disjoint edges
    "zigzag_bracket_between_incomparable_labels": (
        lambda: zigzag(PLPath(1, (0.0, 0.5, 0.5 + 1e-7, 1.0),
                              (((0.0,),) * 4, ((0.5,),) * 4,
                               ((1.45,), (1.45,), (1.6,), (1.6,)), ((2.5,),) * 4),
                              (0.5,) * 4), 0.01),
        "transition between incomparable labels: the instant label dominates neither side"),
    "zigzag_one_time_short": (
        lambda: broken_zigzag(times=lambda times: times[1:]),
        "one transition class and map pair per instant"),
    "zigzag_one_interval_short": (
        lambda: broken_zigzag(interval_classes=lambda classes: classes[1:]),
        "need one more interval class than instants"),
    "zigzag_map_not_onto": (
        lambda: broken_zigzag(maps=not_onto),
        "zigzag maps must be simplicial and vertex-surjective"),
    "filtration_complex_count": (
        lambda: Filtration(PAIR, (0.0, 0.5), (make_complex(2, []),)),
        "one complex per critical radius required"),
    "filtration_not_nested": (
        lambda: Filtration(PAIR, (0.0, 0.5), (make_complex(2, [{0, 1}]), make_complex(2, []))),
        "filtration complexes must be nested"),
    "complex_negative_vertex_count": (
        lambda: SimplicialComplex(-1),
        "n_vertices must be nonnegative"),
    "complex_json_without_vertices": (
        lambda: SimplicialComplex.from_json_dict({"n_vertices": 0, "simplices": []}),
        r"complex JSON requires n_vertices >= 1"),
    "enumerate_no_vertices": (
        lambda: enumerate_classes(0),
        "n_max must be >= 1"),
    "ball_negative_radius": (
        lambda: Ball((0.0, 0.0), -1.0),
        r"ball radius must be >= 0, got -1.0"),
    "set_distance_ball_of_other_dimension": (
        lambda: set_distance(TRIANGLE, Ball((0.0,), 1.0)),
        "dimension mismatch: 2 vs 1"),
    "r2_prime_one_point": (
        lambda: r2_prime(PointConfig(1, ((0.0,),)), 0.5),
        "r2_prime requires at least two points"),
    "safe_ball_zero_r_tilde": (
        lambda: SafeBall(RanPoint(PAIR, 0.25), 0.0, "generic"),
        "safe radius must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_with_its_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_the_broken_zigzags_are_otherwise_whole():
    # each broken field is the one fault: the unbroken zigzag is accepted
    z = broken_zigzag()
    assert z.times and len(z.interval_classes) == len(z.times) + 1

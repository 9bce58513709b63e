import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardsplit.canon import canonical_code
from hardsplit.generators import split_d_pq, torus_knot_diagram, unknot_diagram
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, Loop
from hardsplit.moves import apply_move, enumerate_moves
from hardsplit.pdio import PDError, emit_pd, parse_pd

KINK_TEXT = """
# a single curl, petal between the twin E1 ends
X k E1 E2 E2 E1
F E2:R
O C E1:R   # circle tucked inside the petal
"""


def test_parse_kink():
    d = parse_pd(KINK_TEXT)
    assert list(d.theta) == [3, 2, 1, 0]
    assert d.over == (1,)  # positions 2 and 4 pass over by default
    assert d.hosts == {0: (ROOT, 1)}
    assert d.loops == (Loop("C", ("f", 0)),)


def test_parse_over_flip():
    assert parse_pd("X k E1 E2 E2 E1 over=1\n").over == (0,)
    assert parse_pd("X k E1 E2 E2 E1 over=3\n").over == (0,)


def test_parse_component_labels():
    assert parse_pd("X k E1 E2 E2 E1\nC K E1 E2\n").labels == ("K",)
    with pytest.raises(PDError):
        parse_pd("X k E1 E2 E2 E1\nC ~bad E1\n")


def test_parse_nested_pieces():
    text = """
    X a E1 E2 E2 E1
    X b E3 E4 E4 E3
    F E1:L
    H E3 E1:R E3:L
    """
    d = parse_pd(text)
    assert d.hosts == {0: (ROOT, 1), 4: (("f", 0), 5)}


def test_parse_loop_hints():
    text = """
    O A outer
    O - in:A
    O B in:A
    """
    d = parse_pd(text)
    assert d.loops == (
        Loop("A", ROOT),
        Loop(None, ("l", 0)),
        Loop("B", ("l", 0)),
    )


def test_parse_errors():
    with pytest.raises(PDError):
        parse_pd("X k E1 E2 E2\n")  # three edges
    with pytest.raises(PDError):
        parse_pd("X k E1 E2 E2 E3\n")  # dangling E1/E3
    with pytest.raises(PDError):
        parse_pd("X k E1 E2 E2 E1\nX k E3 E4 E4 E3\n")  # reused name
    with pytest.raises(PDError):
        parse_pd("X k E1 E2 E2 E1 over=2\n")
    with pytest.raises(PDError):
        parse_pd("O C nowhere\n")
    with pytest.raises(PDError):
        parse_pd("Y what\n")
    with pytest.raises(PDError):
        parse_pd("X a E1 E2 E2 E1\nC K E9\n")


KINK_PD = "X k E1 E2 E2 E1\n"
TWO_KINKS_PD = KINK_PD + "X m E3 E4 E4 E3\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("O C\n", "line 1: O needs a name and a face hint"),
        ("C K\n", "line 1: C needs a name and at least one edge"),
        ("H E1 outer\n", "line 1: H needs an edge and two face hints"),
        ("F\n", "line 1: F needs a face hint"),
        ("O A in:B\n", "line 1: unknown loop 'B' in hint"),
        ("O A E9:R\n", "line 1: unknown edge 'E9' in hint"),
        (KINK_PD + "H E9 outer E1:L\n", "line 2: unknown edge 'E9'"),
        (KINK_PD + "H E1 outer outer\n", "line 2: up hint must name a face by edge"),
        (TWO_KINKS_PD + "H E1 outer E3:L\n", "line 3: up face is not on the anchored piece"),
        (KINK_PD + "H E1 outer E1:L\nH E1 outer E1:R\n", "line 3: piece already placed"),
        (KINK_PD + "F outer\n", "line 2: F hint must name a face by edge"),
        (KINK_PD + "F E1:L\nF E1:R\n", "line 3: piece already placed"),
        # F records are placed after every H record
        (KINK_PD + "F E1:L\nH E1 outer E1:R\n", "line 2: piece already placed"),
        (TWO_KINKS_PD + "C K E1 E3\n", "line 3: edges on different components"),
        (KINK_PD + "C K E1\nC L E2\n", "line 3: component labeled twice"),
    ],
)
def test_parse_refusals_name_the_line_and_fault(text, message):
    with pytest.raises(PDError) as err:
        parse_pd(text)
    assert str(err.value) == message


def test_parse_ambiguous_loop_name():
    with pytest.raises(PDError):
        parse_pd("O A outer\nO A outer\nO B in:A\n")


def test_parse_hosting_cycle():
    text = """
    X a E1 E2 E2 E1
    X b E3 E4 E4 E3
    H E1 E3:R E1:L
    H E3 E1:R E3:L
    """
    with pytest.raises(PDError):
        parse_pd(text)


def test_parent_hint_on_an_up_face_names_that_pieces_host():
    # a hint naming another piece's up face means the region that face
    # opens toward: the root for a piece placed by F or by no record, its
    # H host else
    two = "X a E1 E2 E2 E1\nX b E3 E4 E4 E3\nF E1:L\n"
    d = parse_pd(two + "H E3 E1:L E3:L\n")
    assert d.hosts == {0: (ROOT, 1), 4: (ROOT, 5)}
    three = two + "X c E5 E6 E6 E5\nH E3 E1:R E3:L\nH E5 E3:L E5:L\n"
    d = parse_pd(three)
    assert d.hosts == {0: (ROOT, 1), 4: (("f", 0), 5), 8: (("f", 0), 9)}
    # a piece with no H or F record opens its default face to the root
    d = parse_pd("X a E1 E2 E2 E1\nX b E3 E4 E4 E3\nH E3 E1:R E3:L\n")
    assert d.hosts == {0: (ROOT, 0), 4: (ROOT, 5)}
    # each piece hinted at the other's up face: neither has a host
    with pytest.raises(PDError, match="line 4: H records form a hosting cycle"):
        parse_pd("X a E1 E2 E2 E1\nX b E3 E4 E4 E3\nH E1 E3:L E1:L\nH E3 E1:L E3:L\n")


def test_emit_normal_form():
    d = Diagram(PLANE, [3, 2, 1, 0], [0], labels=["K"])
    text = emit_pd(d)
    assert "over=" not in text
    assert text.splitlines()[0].startswith("X c0 ")
    assert any(line.startswith("F ") for line in text.splitlines())


ROUND_TRIP_CASES = [
    Diagram(PLANE, [3, 2, 1, 0], [0], labels=["K"]),
    Diagram(PLANE, [3, 2, 1, 0], [1], labels=None),
    Diagram(
        PLANE,
        [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0],
        [0, 1, 0],
        labels=["T"],
        hosts={0: (ROOT, 2)},
    ),
    Diagram(
        PLANE,
        [3, 2, 1, 0] + [7, 6, 5, 4],
        [0, 1],
        labels=["A", None],
        loops=[("C", ("f", 2)), (None, ROOT), (None, ("l", 1))],
        hosts={4: (("f", 2), 5)},
    ),
    Diagram(PLANE, [7, 6, 10, 9, 8, 11, 1, 0, 4, 3, 2, 5], [0, 0, 1], labels=["K"]),
]


def assert_round_trip(d):
    "parse(emit(d)) is d dart for dart, once emit_pd has rotated its slots."
    back = parse_pd(emit_pd(d), mode=d.mode)
    norm = d.relabeled(None, [0 if o else 1 for o in d.over])
    assert back.mode == norm.mode
    assert list(back.theta) == list(norm.theta)
    assert back.over == norm.over
    assert back.labels == norm.labels
    assert back.loops == norm.loops
    assert back.hosts == norm.hosts
    return back


@pytest.mark.parametrize("d", ROUND_TRIP_CASES, ids=lambda d: repr(d))
def test_emit_parse_round_trip(d):
    d.check()
    back = assert_round_trip(d)
    assert canonical_code(back) == canonical_code(d)


# the nested case above writes O, H and "~" records: a labeled circle in
# a face, an unlabeled one holding another, and a piece inside a face
WALK_STARTS = {
    "trefoil": lambda: torus_knot_diagram(2, 3),
    "hopf": lambda: Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1)),
    "curl": lambda: unknot_diagram(1),
    "split d_pq(2,3)": lambda: split_d_pq(2, 3),
    "nested": lambda: ROUND_TRIP_CASES[3],
}


@pytest.mark.parametrize("mode", [PLANE, SPHERE])
@pytest.mark.parametrize("name", sorted(WALK_STARTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_walked_diagrams_round_trip(name, mode, data):
    # a walk of up to four moves, each site drawn from enumerate_moves
    # under a cap of two added crossings
    d = WALK_STARTS[name]().with_mode(mode)
    cap = d.ncross + 2
    for _ in range(data.draw(st.integers(0, 4), label="moves")):
        sites = enumerate_moves(d, cap)
        if not sites:
            break
        d = apply_move(d, data.draw(st.sampled_from(sites), label="site"))
    assert_round_trip(d)

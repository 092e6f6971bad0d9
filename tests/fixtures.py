"""Shared fixtures: the running example net pair and friends.

The source net has four places p1..p4 and six transitions t1..t6, every
node carrying a single colour; its incidence columns (consume negative,
produce positive, rows ordered p1..p4) are

    t1 = (-1,-1, 1, 1)   t2 = ( 1, 0,-1, 0)   t3 = ( 1, 1,-1,-1)
    t4 = ( 0, 1, 0,-1)   t5 = ( 0, 0,-1, 1)   t6 = ( 0, 0, 1,-1)

The target net has one place u with colour c and one transition a with two
bindings b1, b2, both consuming and producing 2c.  The fold maps
p1, p2, t1..t4 onto a and p3, p4, t5, t6 onto u.
"""

from petrisheaf.net import ColouredNet, place_transition_net
from petrisheaf.topology import PetriSpace, SpaceMap

X_COLUMNS = {
    "t1": (-1, -1, 1, 1),
    "t2": (1, 0, -1, 0),
    "t3": (1, 1, -1, -1),
    "t4": (0, 1, 0, -1),
    "t5": (0, 0, -1, 1),
    "t6": (0, 0, 1, -1),
}

X_PLACES = ("p1", "p2", "p3", "p4")
X_TRANSITIONS = ("t1", "t2", "t3", "t4", "t5", "t6")

FOLD_NODE_MAP = {
    "p1": "a",
    "p2": "a",
    "p3": "u",
    "p4": "u",
    "t1": "a",
    "t2": "a",
    "t3": "a",
    "t4": "a",
    "t5": "u",
    "t6": "u",
}

# closed fibre over a and open fibre over u
A1 = frozenset({"p1", "p2", "t1", "t2", "t3", "t4"})
U1 = frozenset({"p3", "p4", "t5", "t6"})


def x_space():
    nodes = [(p, "place") for p in X_PLACES] + [(t, "transition") for t in X_TRANSITIONS]
    adjacency = [
        (p, t)
        for t, col in X_COLUMNS.items()
        for i, p in enumerate(X_PLACES)
        if col[i] != 0
    ]
    return PetriSpace(nodes, adjacency)


def y_space():
    return PetriSpace([("u", "place"), ("a", "transition")], [("u", "a")])


def fold_space_map():
    return SpaceMap(x_space(), y_space(), FOLD_NODE_MAP)


def x_net():
    consume = {}
    produce = {}
    for t, col in X_COLUMNS.items():
        consume[t] = {p: -col[i] for i, p in enumerate(X_PLACES) if col[i] < 0}
        produce[t] = {p: col[i] for i, p in enumerate(X_PLACES) if col[i] > 0}
    return place_transition_net("runX", X_PLACES, X_TRANSITIONS, consume, produce)


def y_net():
    return ColouredNet(
        y_space(),
        bindings={"a": ("b1", "b2")},
        tokens={"u": ("c",)},
        w_minus={("a", "b1", "u", "c"): 2, ("a", "b2", "u", "c"): 2},
        w_plus={("a", "b1", "u", "c"): 2, ("a", "b2", "u", "c"): 2},
        name="runY",
    )


def bad_weight_target(ring="Z"):
    """The target with b2 weighing 3 instead of 2: the fold's data then fail
    incidence-compat."""
    return ColouredNet(
        y_space(),
        bindings={"a": ("b1", "b2")},
        tokens={"u": ("c",)},
        w_minus={("a", "b1", "u", "c"): 2, ("a", "b2", "u", "c"): 3},
        w_plus={("a", "b1", "u", "c"): 2, ("a", "b2", "u", "c"): 3},
        ring=ring,
        name="runY-bad",
    )


# flows of the source net, over the full binding axis t1..t6
TAU1 = (1, 0, 1, 0, 0, 0)
TAU2 = (1, 1, 0, 1, 0, 0)
TAU3 = (0, 0, 0, 0, 1, 1)


def fold_morphism():
    """The fold from the source onto the target net, with its linear data."""
    from petrisheaf.morphism import NetMorphism

    return NetMorphism(
        x_net(),
        y_net(),
        FOLD_NODE_MAP,
        flow_maps={
            "a": [
                ((1, 0, 1, 0), (1, 0)),
                ((1, 1, 0, 1), (0, 1)),
            ]
        },
        mark_maps={
            "u": {
                ("p3", "p3"): (1,),
                ("p4", "p4"): (1,),
            }
        },
        name="fold",
    )


def unfolding_net():
    """Two-transition unfolding of the target: both consume and produce 2v."""
    return place_transition_net(
        "unfoldY",
        ["v"],
        ["beta1", "beta2"],
        consume={"beta1": {"v": 2}, "beta2": {"v": 2}},
        produce={"beta1": {"v": 2}, "beta2": {"v": 2}},
    )


def unfolding_morphism():
    """Transition-merging map from the unfolding back onto the target."""
    from petrisheaf.morphism import NetMorphism

    return NetMorphism(
        unfolding_net(),
        y_net(),
        {"v": "u", "beta1": "a", "beta2": "a"},
        flow_maps={"a": [((1, 0), (1, 0)), ((0, 1), (0, 1))]},
        mark_maps={"u": {("v", "v"): (1,)}},
        name="unfold",
    )


def squash_morphism():
    """Folds the line ``p -t-> q`` onto the loop ``u -a-> u``: two one-token
    places onto one one-token place, surjective and discrete."""
    from petrisheaf.morphism import NetMorphism

    line = place_transition_net(
        "line", ["p", "q"], ["t"], consume={"t": {"p": 1}}, produce={"t": {"q": 1}}
    )
    loop = place_transition_net(
        "loop", ["u"], ["a"], consume={"a": {"u": 1}}, produce={"a": {"u": 1}}
    )
    return NetMorphism(
        line,
        loop,
        {"p": "u", "q": "u", "t": "a"},
        flow_maps={"a": [((1,), (1,))]},
        mark_maps={"u": {("p", "p"): (1,), ("q", "q"): (1,)}},
        name="squash",
    )


def winskel_nets():
    """Single-loop source, two-place loop target."""
    src = place_transition_net(
        "wsrc", ["x"], ["t"], consume={"t": {"x": 1}}, produce={"t": {"x": 1}}
    )
    tgt = place_transition_net(
        "wtgt",
        ["y1", "y2"],
        ["s"],
        consume={"s": {"y1": 1, "y2": 1}},
        produce={"s": {"y1": 1, "y2": 1}},
    )
    return src, tgt


def winskel_data():
    from petrisheaf.morphism import WinskelMorphism

    src, tgt = winskel_nets()
    return WinskelMorphism(src, tgt, beta={"x": {"y1": 1, "y2": 1}}, eta={"t": "s"})

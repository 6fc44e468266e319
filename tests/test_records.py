"""The value types: frozen, compared and hashed by value, with a stable repr."""

import pickle

import pytest

from cachenoma.caching import Catalog
from cachenoma.channel import DoubleNakagamiParams, LinkGeometry
from cachenoma.config import ScenarioConfig, load_config
from cachenoma.mc import McCaseResult, McConfig, McEstimate
from cachenoma.noma_full import FullScenario
from cachenoma.noma_split import SplitScenario
from cachenoma.optimizer import OptResult

CAT = Catalog(5, 0.5, 1)
CHAN = DoubleNakagamiParams(1.0, 2.0, 2.0, 1.5)
GEOM = LinkGeometry(0.5, 2.0)
FULL = FullScenario(10.0, 1.0, 0.5, 1.0, 2.0, CHAN, CHAN, GEOM, GEOM, "joint")
SPLIT = SplitScenario(FULL, 0.25, 0.5, 0.125, 0.75)
EST = McEstimate(0.5, 0.01)

# reprs recorded from the frozen dataclasses these classes replaced
CHAN_REPR = "DoubleNakagamiParams(m1=1.0, m2=2.0, omega1=2.0, omega2=1.5)"
GEOM_REPR = "LinkGeometry(distance=0.5, pathloss_exp=2.0)"
FULL_REPR = (f"FullScenario(power=10.0, sigma1_sq=1.0, sigma2_sq=0.5, gamma1=1.0, "
             f"gamma2=2.0, chan1={CHAN_REPR}, chan2={CHAN_REPR}, "
             f"geom1={GEOM_REPR}, geom2={GEOM_REPR}, semantics='joint')")
SPLIT_REPR = (f"SplitScenario(base={FULL_REPR}, gamma11=0.25, gamma12=0.5, "
              f"gamma21=0.125, gamma22=0.75)")
EST_REPR = "McEstimate(value=0.5, half_width=0.01)"

# (class, positional arguments, repr, defaults of the trailing fields)
RECORDS = [
    (Catalog, (5, 0.5, 1), "Catalog(num_files=5, zeta=0.5, cache_size=1)", {}),
    (DoubleNakagamiParams, (1.0, 2.0, 2.0, 1.5), CHAN_REPR, {}),
    (LinkGeometry, (0.5, 2.0), GEOM_REPR, {}),
    (FullScenario, (10.0, 1.0, 0.5, 1.0, 2.0, CHAN, CHAN, GEOM, GEOM, "joint"),
     FULL_REPR, {"semantics": "product"}),
    (SplitScenario, (FULL, 0.25, 0.5, 0.125, 0.75), SPLIT_REPR, {}),
    (ScenarioConfig, (SPLIT, CAT, "full"),
     f"ScenarioConfig(split={SPLIT_REPR}, catalog=Catalog(num_files=5, "
     f"zeta=0.5, cache_size=1), averaging='full')", {}),
    (McConfig, (1000, 7, 2), "McConfig(samples=1000, seed=7, workers=2)",
     {"seed": 0, "workers": 1}),
    (McEstimate, (0.5, 0.01), EST_REPR, {}),
    (McCaseResult, (EST, McEstimate(0.25, 0.0), EST),
     f"McCaseResult(p1={EST_REPR}, p2=McEstimate(value=0.25, half_width=0.0), "
     f"joint={EST_REPR})", {}),
    (OptResult, ((0.7, 0.4), 0.25, 33, "high"),
     "OptResult(argmax=(0.7, 0.4), value=0.25, evaluations=33, branch='high')", {}),
]


@pytest.mark.parametrize("cls, args, text, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_value_type_contract(cls, args, text, defaults):
    obj = cls(*args)
    assert repr(obj) == text
    fields = cls.__slots__
    assert tuple(getattr(obj, f) for f in fields) == args

    # keywords and positions build the same value
    same = cls(**dict(zip(fields, args)))
    assert same == obj and hash(same) == hash(obj)
    assert not same != obj
    assert pickle.loads(pickle.dumps(obj)) == obj

    # trailing defaults, and no others
    kept = len(fields) - len(defaults)
    bare = cls(*args[:kept])
    assert {f: getattr(bare, f) for f in fields[kept:]} == defaults
    with pytest.raises(TypeError):
        cls(*args[:kept - 1])

    # a field given both by position and by name, or one value too many
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, args[0])

    # never equal to a value of another class
    for other_cls, other_args, _, _ in RECORDS:
        if other_cls is not cls:
            other = other_cls(*other_args)
            assert obj != other and obj.__eq__(other) is NotImplemented
    assert obj != args

    # frozen
    for f in fields:
        with pytest.raises(AttributeError, match=f):
            setattr(obj, f, args[0])
        with pytest.raises(AttributeError, match=f):
            delattr(obj, f)
    assert tuple(getattr(obj, f) for f in fields) == args

    # replace builds a new value through __init__
    assert obj.replace() == obj
    with pytest.raises(TypeError):
        obj.replace(bogus=1)


def test_unequal_values_differ():
    assert Catalog(5, 0.5, 1) != Catalog(5, 0.5, 2)
    assert McEstimate(0.5, 0.01) != McEstimate(0.5, 0.02)
    assert len({CHAN, DoubleNakagamiParams(1.0, 2.0, 2.0, 1.5), GEOM}) == 2


def test_replace_checks_again():
    assert CAT.replace(zeta=1.0) == Catalog(5, 1.0, 1)
    assert CAT.zeta == 0.5
    cfg = load_config(None)
    with pytest.raises(ValueError, match="power"):
        cfg.scenario.replace(power=-1.0)
    with pytest.raises(ValueError, match="m1"):
        CHAN.replace(m1=1e308)
    with pytest.raises(ValueError, match="cache_size"):
        CAT.replace(cache_size=6)
    with pytest.raises(ValueError, match="workers"):
        McConfig(10).replace(workers=0)

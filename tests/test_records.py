"""The record contract: every public record is a frozen dataclass.

Each of the package's record classes keeps what ``@dataclass(frozen=True)``
gives: ``fields``/``replace``/``asdict``/``is_dataclass``, positional and
keyword construction in field order with Python's ``TypeError`` for a call
that does not fit, ``__post_init__`` validation, ``FrozenInstanceError``,
field-wise equality and hash (identity for the ``eq=False`` records), the
``Name(field=value, ...)`` repr, pickling and ``inspect.signature``.
"""

import inspect
import pickle
import pydoc
import subprocess
import sys
import textwrap
from dataclasses import MISSING, FrozenInstanceError, asdict, fields, is_dataclass, replace

import numpy as np
import pytest

import ringsfwm
from ringsfwm import (
    CouplingConfig,
    CwObservables,
    Geometry,
    Objective,
    OptimizationTarget,
    OptimumRecord,
    PulsedObservables,
    PumpMode,
    PumpRegime,
    PumpSpec,
    RingParams,
    SchmidtResult,
    SweepAxis,
    SweepResult,
    SweepSpec,
    TabulatedSpectrum,
    WavepacketGrid,
)
from ringsfwm.optimize import CrossValidationEntry, CrossValidationReport

RING = dict(n2=1e-17, vg=1e8, area=1e-13, circumference=1e-3, omega0=1e15)
TARGET = OptimizationTarget(Objective.ONE_PHOTON, PumpRegime.CW)
OPTIMUM = OptimumRecord(Geometry.ALL_PASS_IDENTICAL, TARGET, (1.0,), 1.0)
ENTRY = CrossValidationEntry(Geometry.ALL_PASS_IDENTICAL, TARGET, OPTIMUM, OPTIMUM)
AXIS = SweepAxis("gamma_a", 0.1, 10.0, 3)
SPEC = SweepSpec(Geometry.ALL_PASS_IDENTICAL, AXIS, None, ("Rs",), RingParams(**RING),
                 PumpSpec.cw(1e-3), 1.0)

# class: (field names in order, eq, valid keyword arguments, an invalid
# override __post_init__ rejects or None where it validates nothing)
RECORDS = {
    RingParams: (("n2", "vg", "area", "circumference", "omega0"), True, RING, {"vg": -1.0}),
    CouplingConfig: (
        ("geometry", "couplings", "gamma_c", "tgamma_c"), True,
        dict(geometry=Geometry.ADD_DROP_DISTINCT, couplings=(1.0, 0.5), gamma_c=2.0),
        {"gamma_c": 0.0},
    ),
    PumpSpec: (
        ("mode", "power", "energy", "delta_omega", "bandwidth_factor", "spectrum"), True,
        dict(mode=PumpMode.CW, power=1e-3), {"energy": 1e-12},
    ),
    CwObservables: (
        ("Rs", "Ri", "Rsi", "heralding_efficiency"), True,
        dict(Rs=2.0, Ri=2.0, Rsi=1.0, heralding_efficiency=0.5), {"Rsi": 3.0},
    ),
    PulsedObservables: (
        ("ps", "pi", "psi_pair"), True, dict(ps=0.1, pi=0.1, psi_pair=0.05), {"pi": 0.2},
    ),
    TabulatedSpectrum: (
        ("omega", "amplitude", "knots"), False,
        dict(omega=np.linspace(-1.0, 1.0, 5), amplitude=np.full(5, 0.5**0.5, dtype=complex)),
        {"omega": np.linspace(1.0, -1.0, 5)},
    ),
    WavepacketGrid: (
        ("t_axis", "amplitudes", "weights"), False,
        dict(t_axis=np.arange(16.0), amplitudes=np.eye(16), weights=np.ones(16)),
        {"weights": np.zeros(16)},
    ),
    SchmidtResult: (
        ("lambdas", "K", "K_minus_1", "tail"), False,
        dict(lambdas=np.array([0.75, 0.25]), K=1.6, K_minus_1=0.6, tail=0.0), {"tail": 2.0},
    ),
    OptimizationTarget: (
        ("objective", "pump_regime"), True,
        dict(objective=Objective.TWO_PHOTON, pump_regime=PumpRegime.BROADBAND_PULSE),
        {"objective": "two-photon"},
    ),
    OptimumRecord: (
        ("geometry", "target", "couplings", "peak_value", "couplings_exact", "peak_value_exact"),
        True, dict(geometry=Geometry.ALL_PASS_IDENTICAL, target=TARGET, couplings=(1.0,),
                   peak_value=0.25), {"peak_value": 0.0},
    ),
    CrossValidationEntry: (
        ("geometry", "target", "analytic", "numeric"), True,
        dict(geometry=Geometry.ALL_PASS_IDENTICAL, target=TARGET, analytic=OPTIMUM,
             numeric=OPTIMUM),
        None,
    ),
    CrossValidationReport: (("entries",), True, dict(entries=(ENTRY,)), None),
    SweepAxis: (
        ("name", "start", "stop", "n_points", "scale"), True,
        dict(name="gamma_a", start=0.1, stop=10.0, n_points=3), {"start": 0.0},
    ),
    SweepSpec: (
        ("geometry", "axis1", "axis2", "outputs", "ring", "pump", "gamma_c", "tgamma_c",
         "coincidence_window"), True,
        dict(geometry=Geometry.ALL_PASS_IDENTICAL, axis1=AXIS, axis2=None, outputs=("Rs",),
             ring=RingParams(**RING), pump=PumpSpec.cw(1e-3), gamma_c=1.0), {"outputs": ()},
    ),
    SweepResult: (
        ("spec", "columns", "meta"), True,
        dict(spec=SPEC, columns={"gamma_a": [0.1, 1.0, 10.0], "Rs": [1.0, 2.0, 3.0],
                                 "error": [None, None, None]}, meta={"n_failed": 0}),
        None,
    ),
}
CLASSES = list(RECORDS)


def build(cls):
    return cls(**RECORDS[cls][2])


def same(a, b) -> bool:
    """Field values equal, arrays element by element."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and any(isinstance(v, np.ndarray) for v in a):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


def test_every_public_record_is_listed():
    public = {obj for name in ringsfwm.__all__ if is_dataclass(obj := getattr(ringsfwm, name))}
    assert public == set(CLASSES) - {CrossValidationEntry, CrossValidationReport}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_dataclass_fields_in_order(self, cls):
        names, eq = RECORDS[cls][:2]
        assert is_dataclass(cls) and is_dataclass(build(cls))
        assert tuple(f.name for f in fields(cls)) == names
        init = tuple(f.name for f in fields(cls) if f.init)
        assert cls.__match_args__ == init
        params = cls.__dataclass_params__
        assert (params.init, params.repr, params.eq, params.frozen) == (True, True, eq, True)

    def test_positional_and_keyword_construction_agree(self, cls):
        obj = build(cls)
        init = [f.name for f in fields(cls) if f.init]
        given = RECORDS[cls][2]
        positional = cls(*(given[name] for name in init if name in given))
        assert all(same(getattr(positional, f.name), getattr(obj, f.name)) for f in fields(cls))
        # defaults included, in field order
        assert list(vars(obj)) == list(vars(positional)) == [f.name for f in fields(cls)]

    def test_replace_round_trip_and_asdict(self, cls):
        obj = build(cls)
        copy = replace(obj)
        assert type(copy) is cls and copy is not obj
        assert all(same(getattr(copy, f.name), getattr(obj, f.name)) for f in fields(cls))
        flat = asdict(obj)
        assert list(flat) == [f.name for f in fields(cls)]
        for f in fields(cls):
            value = getattr(obj, f.name)
            if is_dataclass(value) or isinstance(value, tuple) and any(map(is_dataclass, value)):
                assert flat[f.name] == (asdict(value) if is_dataclass(value) else
                                        tuple(map(asdict, value)))
            else:
                assert same(flat[f.name], value)
        for f in fields(cls):
            if not f.init:
                with pytest.raises(ValueError, match="init=False"):
                    replace(obj, **{f.name: None})

    def test_frozen(self, cls):
        obj = build(cls)
        first = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{first}'"):
            setattr(obj, first, None)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
            obj.other = 1
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{first}'"):
            delattr(obj, first)
        assert not hasattr(obj, "other")

    def test_equality_and_hash(self, cls):
        eq = RECORDS[cls][1]
        a, b = build(cls), build(cls)
        assert a == a and a.__eq__(object()) is NotImplemented
        if not eq:
            assert a != b and hash(a) == object.__hash__(a)
            return
        assert a == b and not a != b
        key = tuple(getattr(a, f.name) for f in fields(cls) if f.compare)
        try:
            expected = hash(key)
        except TypeError:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected

    def test_repr(self, cls):
        obj = build(cls)
        shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(cls) if f.repr)
        assert repr(obj) == f"{cls.__qualname__}({shown})"

    def test_signature(self, cls):
        init = [f for f in fields(cls) if f.init]
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in init]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        assert [p.default for p in params] == [
            p.empty if f.default is MISSING else f.default for p, f in zip(params, init)
        ]
        assert [p.name for p in inspect.signature(cls.__init__).parameters.values()][1:] == [
            f.name for f in init
        ]
        assert f"{cls.__name__}({init[0].name}" in pydoc.plain(pydoc.render_doc(cls))

    def test_call_that_does_not_fit_raises_type_error(self, cls):
        given = RECORDS[cls][2]
        init = [f.name for f in fields(cls) if f.init]
        with pytest.raises(TypeError, match=r"missing \d+ required positional argument"):
            cls()
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**given, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{init[0]}'"):
            cls(given[init[0]], **given)
        with pytest.raises(TypeError, match=r"positional arguments? but \d+ were given"):
            cls(*range(len(init) + 1))

    def test_pickle_round_trip(self, cls):
        obj = build(cls)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls
        assert all(same(getattr(back, f.name), getattr(obj, f.name)) for f in fields(cls))


@pytest.mark.parametrize("geometry", list(Geometry))
def test_coupling_config_replace_on_every_geometry(geometry):
    """A config of each geometry round-trips through ``replace``.  A tied one
    stores ``tgamma_c = gamma_c``, so a new ``gamma_c`` needs ``tgamma_c=None``
    beside it; without, the stale value is rejected, naming the tie."""
    couplings = (1.0,) if geometry is Geometry.ALL_PASS_IDENTICAL else (1.0, 0.5)
    obj = CouplingConfig(geometry, couplings, 2.0)
    copy = replace(obj)
    assert copy == obj and copy is not obj and copy.tgamma_c == 2.0
    moved = replace(obj, gamma_c=3.0, tgamma_c=None)
    assert (moved.couplings, moved.gamma_c, moved.tgamma_c) == (couplings, 3.0, 3.0)
    if geometry is Geometry.ADD_DROP_DISTINCT:
        assert replace(obj, gamma_c=3.0).tgamma_c == 2.0
    else:
        with pytest.raises(ValueError, match="ties the pump loss to gamma_c"):
            replace(obj, gamma_c=3.0)


@pytest.mark.parametrize("cls", [c for c in CLASSES if RECORDS[c][3]], ids=lambda c: c.__name__)
def test_post_init_validates(cls):
    with pytest.raises(ValueError):
        cls(**{**RECORDS[cls][2], **RECORDS[cls][3]})


def test_missing_arguments_named_as_python_does():
    with pytest.raises(TypeError, match=(
        r"CouplingConfig.__init__\(\) missing 3 required positional arguments: "
        r"'geometry', 'couplings', and 'gamma_c'$"
    )):
        CouplingConfig()
    with pytest.raises(TypeError, match=(
        r"missing 2 required positional arguments: 'circumference' and 'omega0'$"
    )):
        RingParams(1.0, 1.0, 1.0)
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'omega0'$"):
        RingParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(TypeError, match=r"takes from 4 to 5 positional arguments but 6 were given"):
        CouplingConfig(Geometry.ALL_PASS_IDENTICAL, (1.0,), 1.0, None, 1)
    with pytest.raises(TypeError, match=r"takes 6 positional arguments but 7 were given$"):
        RingParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_repr_and_signature_text():
    assert repr(CouplingConfig.all_pass(1.0, 2.0)) == (
        "CouplingConfig(geometry=<Geometry.ALL_PASS_IDENTICAL: 'all-pass-identical'>, "
        "couplings=(1.0,), gamma_c=2.0, tgamma_c=2.0)"
    )
    assert "knots" not in repr(build(TabulatedSpectrum))
    assert str(inspect.signature(CouplingConfig)) == (
        "(geometry: 'Geometry', couplings: 'tuple[float, ...]', gamma_c: 'float', "
        "tgamma_c: 'Optional[float]' = None) -> None"
    )


def test_compare_false_field_left_out_of_equality():
    a = build(SweepResult)
    assert a == replace(a, meta={"other": 1})
    assert a != replace(a, columns={**a.columns, "Rs": [1.0, 2.0, 4.0]})


def test_each_record_has_its_own_init():
    """A wrapper of one record's ``__init__`` (a tracer's span) must not
    reach another record."""
    assert CouplingConfig.__init__ is not RingParams.__init__
    assert len({id(cls.__init__) for cls in CLASSES}) == len(CLASSES)


def test_import_generates_no_code():
    """Importing the package, its CLI, its config reader and every public
    name (which loads the deferred modules) compiles no source that is not
    a file: the records are built without generated methods.  The standard
    modules the package imports are loaded first, since some build code of
    their own (``namedtuple``).  From Python 3.13 on, ``dataclass`` compiles
    one empty builder, ``def __create_fn__(): return ()``, per class even
    when it generates no method; that source holds no code and is not
    counted."""
    code = textwrap.dedent("""
        import argparse, ast, configparser, dataclasses, fractions, json, os, sys
        import numpy
        sources = []
        def hook(event, args):
            if event == "compile" and not (isinstance(args[1], str) and os.path.isfile(args[1])):
                sources.append(args[0])
        sys.addaudithook(hook)
        import ringsfwm, ringsfwm.cli, ringsfwm.config
        from ringsfwm import *
        found = sources[:]  # ast.parse compiles too
        empty = ast.dump(ast.parse("def __create_fn__(): return ()"))
        print(sum(ast.dump(ast.parse(source)) != empty for source in found))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"

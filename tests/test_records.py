"""The record classes are immutable named tuples with keyword constructors.

Each record is a ``collections.namedtuple`` subclass, so it loads without
``dataclasses``; these tests pin what callers rely on: read-only fields,
construction by keyword or position, a ``Name(field=...)`` repr, equality
and hashing by value, and pickling (records cross to worker processes).
A critical-value table is one too, compared by value but unhashable.
"""

import pickle

import pytest

from metacrit.diagnostics import EcdfDump
from metacrit.estimation import QuantileEstimate
from metacrit.methods import DEFAULT_TAILS, Method, MethodSpec, Tail
from metacrit.sampling import SimConfig
from metacrit.tables import CriticalValueTable, TableCell

SPEC = MethodSpec(Method.FISHER)

# one keyword construction per record, its fields in declaration order
RECORDS = {
    MethodSpec: dict(method=Method.CHEN, tail=Tail.LOWER),
    SimConfig: dict(n=4, n_f=1, N=99, R=3, seed=7, q_list=(0.1, 0.9)),
    QuantileEstimate: dict(q=0.05, estimate=1.5, stderr=None, provenance="exact"),
    TableCell: dict(method=Method.FISHER, n=3, n_f=1, q=0.95, estimate=14.0, stderr=0.1,
                    provenance="simulated"),
    EcdfDump: dict(values=(0.5,), spec=SPEC, n=3, n_f=0, N=1, seed=5),
}
ids = [cls.__name__ for cls in RECORDS]
# and the table, whose cells, a dict, leave it unhashable
TABLE = dict(cells={(Method.FISHER, 3, 1, 0.95): TableCell(**RECORDS[TableCell])}, seed=7,
             N=99, R=3, version="0.1.0", numpy="2.0")
ALL = {**RECORDS, CriticalValueTable: TABLE}
all_ids = [*ids, "CriticalValueTable"]


@pytest.mark.parametrize("cls, kw", ALL.items(), ids=all_ids)
def test_fields_are_read_only(cls, kw):
    rec = cls(**kw)
    for name in kw:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # no instance dict either


@pytest.mark.parametrize("cls, kw", RECORDS.items(), ids=ids)
def test_keyword_construction_and_repr(cls, kw):
    rec = cls(**kw)
    assert {name: getattr(rec, name) for name in kw} == kw
    assert rec == cls(*kw.values())
    assert hash(rec) == hash(cls(*kw.values()))
    fields = ", ".join(f"{name}={value!r}" for name, value in kw.items())
    assert repr(rec) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, kw", ALL.items(), ids=all_ids)
def test_pickle_round_trip(cls, kw):
    rec = cls(**kw)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls
    assert back == rec


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.token)
def test_method_spec_default_tail(method):
    spec = MethodSpec(method)
    assert spec.tail is DEFAULT_TAILS[method]
    assert spec == MethodSpec(method, DEFAULT_TAILS[method])
    assert hash(spec) == hash(MethodSpec(method, DEFAULT_TAILS[method]))
    assert MethodSpec(method=method, tail=None) == spec


def test_quantile_estimate_defaults_to_simulated():
    assert QuantileEstimate(0.5, 1.0, 0.1).provenance == "simulated"


def test_sim_config_levels_become_a_tuple_of_floats():
    cfg = SimConfig(3, 0, q_list=[0.25, 0.75])
    assert cfg.q_list == (0.25, 0.75)
    assert type(cfg.q_list) is tuple and all(type(q) is float for q in cfg.q_list)


def test_table_equality_covers_cells_and_metadata():
    def table(**kw):
        return CriticalValueTable(**{**TABLE, **kw})

    assert table() == table()
    assert table() != table(seed=1)
    assert table() != table(cells={})
    assert table() != "table"

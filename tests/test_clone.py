import pytest

from latclone import (
    chain,
    closure,
    enumerate_class,
    format_closure_report,
    format_verification_report,
    is_idempotent,
    is_monotone,
    join_fn,
    m_lattice,
    meet_fn,
    projection,
    reduced_generator_set,
    verify_generation,
)
from latclone.errors import (
    ArityMismatch,
    BudgetExceeded,
    InvalidArgument,
    LatticeMismatch,
)


def test_meet_join_closure_on_chain2(chain2):
    report = closure([meet_fn(chain2), join_fn(chain2)], 2)
    # binary lattice terms over a 2-chain: the two projections, meet, join
    assert not report.budget_hit
    got = {f.values for f in report.reached}
    assert got == {(0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 1), (0, 1, 1, 1)}


def test_projections_only_base(chain3):
    base = [projection(chain3, 2, 1)]
    report = closure(base, 2)
    assert not report.budget_hit
    assert {f.values for f in report.reached} == {
        projection(chain3, 2, 1).values,
        projection(chain3, 2, 2).values,
    }


def test_base_functions_enter_closure(chain3):
    report = closure([meet_fn(chain3), join_fn(chain3)], 2)
    got = {f.values for f in report.reached}
    assert meet_fn(chain3).values in got
    assert join_fn(chain3).values in got


def test_closure_invariant_under_base_order(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    a = closure(base, 2)
    b = closure(base[::-1], 2)
    assert {f.values for f in a.reached} == {f.values for f in b.reached}


def test_idempotent_base_stays_idempotent(diamond):
    base = [meet_fn(diamond), join_fn(diamond)]
    report = closure(base, 2)
    assert not report.budget_hit
    for f in report.reached:
        assert is_idempotent(f)
        assert is_monotone(f)


def test_closure_mixed_arities(chain2):
    base = [meet_fn(chain2), projection(chain2, 1, 1)]
    report = closure(base, 2)
    assert not report.budget_hit
    assert meet_fn(chain2).values in {f.values for f in report.reached}


def test_closure_budget_hit_partial_result(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    report = closure(base, 2, budget=50)
    assert report.budget_hit
    assert report.attempts == 50
    assert len(report.reached) >= 2


def test_closure_budget_counts_compositions_made(chain3):
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    report = closure(base, 2, budget=5)
    assert report.budget_hit
    assert report.attempts == 5


def test_closure_early_stop_on_target_keys(chain3):
    ids = enumerate_class(chain3, 2, "idempotent")
    base = [meet_fn(chain3), join_fn(chain3)]
    base += [spec.table(chain3) for spec in reduced_generator_set(chain3)]
    keys = {f.key() for f in ids}
    report = closure(base, 2, until_keys=keys)
    assert not report.budget_hit
    assert keys <= report.keys


def test_closure_rejects_mixed_lattices(chain2, chain3):
    with pytest.raises(LatticeMismatch):
        closure([meet_fn(chain2), meet_fn(chain3)], 2)


def test_closure_rejects_empty_base():
    with pytest.raises(ValueError):
        closure([], 2)


def test_closure_argument_errors_are_domain_errors(chain2):
    with pytest.raises(InvalidArgument):
        closure([], 2)
    with pytest.raises(InvalidArgument):
        closure([meet_fn(chain2)], 2, budget=0)


def test_verify_generation_rejects_arity_zero(chain2):
    with pytest.raises(ArityMismatch):
        verify_generation(chain2, 0)


@pytest.mark.parametrize(
    "lat,count",
    [(chain(2), 4), (chain(3), 64), (m_lattice(2), 1296)],
    ids=lambda v: getattr(v, "name", v),
)
def test_verify_generation_binary(lat, count):
    report = verify_generation(lat, 2)
    assert report.id_count == count
    assert report.closure_pass
    assert report.decomposition_pass
    assert report.ok
    assert not report.counterexamples


def test_verify_generation_raises_on_budget(chain3):
    with pytest.raises(BudgetExceeded):
        verify_generation(chain3, 2, budget=10)


def test_report_formats(chain2):
    report = verify_generation(chain2, 2)
    text = format_verification_report(report)
    assert text.startswith("lattice=chain2 arity=2 id_count=4 A=pass B=pass")
    inner = format_closure_report(report.closure_report)
    assert inner.startswith("reached=4 ")
    assert "budget_hit=false" in inner

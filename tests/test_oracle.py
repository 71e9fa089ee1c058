import os

import pytest

from enumorder import algebra, extraction, oracle
from enumorder.errors import EnumOrderError, TooLarge
from enumorder.extraction import check_inverse_positions
from enumorder.oracle import REGISTRY, run_properties, run_property
from enumorder.prefixes import (
    PrefixListing,
    ReducibilityVerdict,
    inverse_lookup,
    inversions,
    leq_eo,
)

# the oracle calls the prefixes functions through its own names, and imports
# the others from their modules when a checker runs: a fault planted in a
# target goes on the module that the oracle reads it from
OWNERS = {"transport": algebra, "chain_stabilize": algebra,
          "check_inverse_positions": extraction}


def owner(target):
    return OWNERS.get(target, oracle)


class TestRunProperty:
    def test_unknown(self):
        with pytest.raises(EnumOrderError, match="^unknown property: bogus$"):
            run_property("bogus", 3)

    def test_over_cap(self):
        with pytest.raises(TooLarge):
            run_property("transitive", 5)

    @pytest.mark.parametrize("pid", sorted(REGISTRY))
    def test_passes_at_small_n(self, pid):
        report = run_property(pid, min(REGISTRY[pid][0], 3))
        assert report.passed
        assert report.violations == ()

    def test_transitive_instance_count(self):
        assert run_property("transitive", 3).instances == 216

    def test_non_antisymmetric_reports_witness(self):
        report = run_property("non-antisymmetric", 2)
        assert report.passed
        w = report.witness
        assert w and w["f"] != w["g"]

    def test_class_count_matches_pattern_count(self):
        report = run_property("class-count", 4)
        assert report.passed and report.instances == 24

    def test_reports_deterministic(self):
        a = run_property("stabilization", 3)
        b = run_property("stabilization", 3)
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        obj = run_property("reflexive", 3).to_json()
        assert set(obj) == {"property", "n", "instances", "violations", "pass"}
        assert obj["pass"] is True


# each checker past its cap, called directly since run_property refuses it:
# ~8 s in all, while subset-characterization or lemma-2-8 at n = 7 alone
# would take 7.5-25 s
PAST_CAPS = [("reflexive", 8), ("lemma-2-3", 8), ("transitive", 6),
             ("subset-characterization", 6), ("lemma-2-8", 6), ("transport", 6),
             ("stabilization", 7), ("class-count", 7)]


@pytest.mark.slow
@pytest.mark.parametrize("pid, n", PAST_CAPS)
def test_checker_past_its_cap(pid, n):
    max_n, checker = REGISTRY[pid]
    assert n > max_n
    _, violations, _ = checker(n)
    assert violations == []


@pytest.mark.slow
@pytest.mark.parametrize("planted", [False, True])
def test_length_identity_at_n_7(monkeypatch, planted):
    # an unregistered checker: 10^5 seeded pairs, with f = g at ~20 of them,
    # where a leq_eo without reflexivity disagrees
    if planted:
        monkeypatch.setattr(oracle, "leq_eo", _strict_leq_eo)
    instances, violations, _ = oracle._check_length_identity(7)
    assert instances == 100_000
    assert bool(violations) is planted


class TestOracleIndependence:
    def test_subset_characterization_uses_its_own_loop(self):
        # the checker evaluates the defining implication inline, without the
        # inversion-set helper
        import inspect

        from enumorder.oracle import _check_subset_characterization

        src = inspect.getsource(_check_subset_characterization)
        assert "inversions" not in src


# Faults planted in the targets of the oracle properties; each property must
# report a violation when its target carries one.


def _strict_leq_eo(f, g):
    # drops reflexivity: a listing no longer reduces to itself
    return ReducibilityVerdict(fail_at=(1, 2)) if f == g and len(f) > 1 else leq_eo(f, g)


def _leq_eo_missing_top(f, g):
    # drops the single pair ascending <= reversal, which transitivity through
    # any middle listing, and lemma 2.3, both require
    n = len(f)
    if f.values == tuple(range(1, n + 1)) and g.values == tuple(range(n, 0, -1)) and n > 1:
        return ReducibilityVerdict(fail_at=(1, 2))
    return leq_eo(f, g)


def _equiv_by_inversion_count(f, g):
    # merges classes: equal inversion counts instead of equal patterns
    return len(inversions(f)) == len(inversions(g))


def _transport_through_h(h, h_prime, g_prime):
    # looks up positions in h instead of h_prime
    return PrefixListing(tuple(g_prime(inverse_lookup(h, v)) for v in h))


def _stabilize_last_repeat(c):
    # reports the last repeat instead of the first
    found = None
    for j in range(2, len(c.listings) + 1):
        if c.listings[j - 1] == c.listings[j - 2]:
            found = (j - 1, j)
    return found


def _clauses_fail_on_reversal(f, g):
    # reports clause 1 false on the single contained pair ascending <= reversal
    report = check_inverse_positions(f, g)
    n = len(f)
    if f.values == tuple(range(1, n + 1)) and g.values == tuple(range(n, 0, -1)) and n > 1:
        return report._replace(clause1=report.clause1._replace(holds=False))
    return report


def _equiv_by_raw_values(f, g):
    # compares values instead of patterns: listings over other values never match
    return f.values == g.values


PLANTED_FAULTS = [
    ("reflexive", 3, "leq_eo", _strict_leq_eo),
    ("transitive", 3, "leq_eo", _leq_eo_missing_top),
    ("non-antisymmetric", 3, "equiv_eo", _equiv_by_raw_values),
    ("subset-characterization", 3, "leq_eo", _leq_eo_missing_top),
    ("lemma-2-3", 3, "leq_eo", _leq_eo_missing_top),
    ("lemma-2-8", 3, "check_inverse_positions", _clauses_fail_on_reversal),
    ("class-count", 3, "equiv_eo", _equiv_by_inversion_count),
    ("transport", 3, "transport", _transport_through_h),
    ("stabilization", 4, "chain_stabilize", _stabilize_last_repeat),
]


@pytest.mark.parametrize("property_id, n, target, fault", PLANTED_FAULTS)
def test_property_catches_planted_fault(monkeypatch, property_id, n, target, fault):
    assert run_property(property_id, n).passed
    monkeypatch.setattr(owner(target), target, fault)
    report = run_property(property_id, n)
    assert not report.passed and report.violations


def test_planted_faults_cover_every_property():
    assert sorted(pid for pid, *_ in PLANTED_FAULTS) == sorted(REGISTRY)


def _inversions_of_reversal(p):
    # the complement of the true inversion set
    return inversions(PrefixListing(p.values[::-1]))


def test_class_count_reads_no_ranks(monkeypatch):
    # every listing reads as ascending, so equiv_eo finds one class; the
    # pattern count beside it must not see the same fault
    ascending = property(lambda p: tuple(range(1, len(p) + 1)))
    monkeypatch.setattr(PrefixListing, "ranks", ascending)
    report = run_property("class-count", 4)
    assert report.violations == ("1 classes vs 24 distinct patterns",)


def test_subset_characterization_sees_a_faulty_inversion_mask(monkeypatch):
    # leq_eo's small path reads one bit fewer than the listing's inversions;
    # the oracle's own pair masks must not share the fault
    real = PrefixListing.__dict__["inversion_mask"].func
    one_bit_short = property(lambda p: real(p) & (real(p) - 1))
    monkeypatch.setattr(PrefixListing, "inversion_mask", one_bit_short)
    report = run_property("subset-characterization", 3)
    assert not report.passed and report.violations


def test_oracle_reads_no_package_inversions_or_ranks(monkeypatch):
    # the complement of each inversion set, planted where a top-level import
    # would bind it, and ranks that are the raw values: right on 1..n, and
    # no pattern on n+1..2n, where transport's targets live
    monkeypatch.setattr(oracle, "inversions", _inversions_of_reversal, raising=False)
    monkeypatch.setattr(PrefixListing, "ranks", property(lambda p: p.values))
    for pid in ("subset-characterization", "lemma-2-8", "stabilization", "transport"):
        assert run_property(pid, 4).passed, pid
    monkeypatch.setattr(oracle, "leq_eo", _leq_eo_missing_top)
    assert not run_property("subset-characterization", 4).passed


def _timeless(reports):
    return [report._replace(elapsed=0.0) for report in reports]


def _jobs(n=None):
    """Every property at n, or at its cap."""
    return [(pid, cap if n is None else n) for pid, (cap, _) in REGISTRY.items()]


class TestRunProperties:
    @pytest.mark.parametrize("n", [3, None])
    def test_same_reports_as_run_property(self, cpus, n):
        cpus(2)
        serial = [run_property(*job) for job in _jobs(n)]
        assert _timeless(run_properties(_jobs(n))) == _timeless(serial)

    def test_child_dies(self, cpus, monkeypatch):
        # every checker exits the child that claims it; the parent reruns
        # whatever the child never reported
        parent = os.getpid()

        def dying(checker):
            def run(n):
                if os.getpid() != parent:
                    os._exit(1)
                return checker(n)
            return run

        serial = [run_property(*job) for job in _jobs()]
        for pid, (cap, checker) in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, pid, (cap, dying(checker)))
        cpus(2)
        assert _timeless(run_properties(_jobs())) == _timeless(serial)

    def test_closed_early(self, cpus):
        cpus(2)
        reports = run_properties(_jobs())
        assert next(reports).property_id == "reflexive"
        reports.close()

    def test_child_reaped_before_the_first_report(self, cpus):
        cpus(2)
        reports = run_properties(_jobs())
        assert next(reports).property_id == "reflexive"
        # the generator is still open, and no child is left to wait for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_parent_pins_its_child(self, cpus, monkeypatch):
        # the parent ran on CPU 0, so the child gets the other one, and the
        # parent sets it: a call in the child would land in its own list
        calls = []
        cpus(2)
        monkeypatch.setattr(oracle, "_current_cpu", lambda: 0)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: calls.append((pid, mask)),
                            raising=False)
        list(run_properties(_jobs(3)))
        [(pid, mask)] = calls
        assert pid not in (0, os.getpid()) and mask == {1}

    def test_an_unpinned_child_reports(self, cpus, monkeypatch):
        def refuse(pid, mask):
            raise OSError("not permitted")

        cpus(2)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        serial = [run_property(*job) for job in _jobs()]
        assert _timeless(run_properties(_jobs())) == _timeless(serial)

    @pytest.mark.parametrize("count, jobs", [(1, _jobs(3)), (2, _jobs(3)[:1])])
    def test_no_fork_on_the_serial_path(self, cpus, monkeypatch, count, jobs):
        def fork():
            raise AssertionError("forked on the serial path")

        cpus(count)
        monkeypatch.setattr(os, "fork", fork, raising=False)
        assert _timeless(run_properties(jobs)) == _timeless(run_property(*j) for j in jobs)

"""The standing mutation list: single-line defects of the estimator core, each with the tests that see it.

Each entry names a file under src/asymshap, one line of it (without its indentation), the line
that replaces it (at the same indentation) and the test ids that must fail with it. Run

    python tests/mutants.py [NAME ...]

from the repository root to check every entry, or the named ones. Each mutant is written into
a temporary copy of src/, tests/ and pyproject.toml, and pytest runs only its ids there, after one
run of every chosen id on an unmutated copy. The run fails when an id fails unmutated, when an
entry's line is not found exactly once, when pytest cannot run the ids, or when any id passes with
its mutant. pytest does not collect this file: it is not named test_*.py.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/asymshap
    old: str
    new: str
    kills: tuple[str, ...]


V, A, S, C = ("tests/test_values.py::", "tests/test_attribution.py::", "tests/test_scenarios.py::",
              "tests/test_coalitions.py::")

MUTANTS = [
    Mutant("stderr-ddof-0", "attribution.py",
           "return np.std(np.ascontiguousarray(A.T), axis=1, ddof=1) / math.sqrt(A.shape[0])",
           "return np.std(np.ascontiguousarray(A.T), axis=1, ddof=0) / math.sqrt(A.shape[0])",
           (A + "TestMarginalContributions::test_feature_indexed_reduction_is_bitwise",)),
    Mutant("knn-relaxes-most-informative-first", "values.py",
           "self._relax_order = sorted(mi, key=lambda i: (mi[i], i))",
           "self._relax_order = sorted(mi, key=lambda i: (-mi[i], i))",
           (V + "TestKNNSampler::test_relaxation_drops_least_informative_feature_first",)),
    Mutant("completion-weights-ignored", "values.py",
           "self._cache[mask] = _mean(f[start:start + size], weights)",
           "self._cache[mask] = _mean(f[start:start + size], None)",
           (S + "test_chain_proximate_gives_x1_nothing",)),
    Mutant("knn-distance-scaled-by-sd", "values.py",
           "self._inv_scale = np.where(sd > 0, 1.0 / safe, 0.0)",
           "self._inv_scale = np.where(sd > 0, safe, 0.0)",
           (V + "TestKNNSampler::test_standardized_distance_picks_the_scaled_neighbor",)),
    Mutant("nearest-on-line-window-one-short", "values.py",
           "lo, hi = max(p - k, 0), min(p + k, n)",
           "lo, hi = max(p - k, 0), min(p + k - 1, n)",
           (V + "TestPooledSamplers::test_matches_the_unpooled_completion[grid-1]",)),
    Mutant("markov-class-posterior-one-half", "scenarios.py",
           "w /= w.sum()",
           "w = np.array([0.5, 0.5])",
           (S + "TestMarkovConditionalSamples::test_draws_match_the_closed_form_mixture_mean[G1]",)),
    Mutant("markov-covariance-without-gain", "scenarios.py",
           "cond_cov = SHH - gain @ SHG.T",
           "cond_cov = SHH",
           (S + "test_knn_completion_is_within_its_smoothing_bias_of_the_closed_form",)),
    Mutant("background-of-m-rows-subsampled", "values.py",
           "if m >= len(rows):",
           "if m > len(rows):",
           (A + "TestCoalitionAccuracy::test_perfectly_informative_feature",)),
    Mutant("point-budget-with-replacement", "attribution.py",
           "return np.sort(_stream(seed, 0xB0D6E7).choice(n_rows, size=B, replace=False))",
           "return np.sort(_stream(seed, 0xB0D6E7).choice(n_rows, size=B, replace=True))",
           tuple(f"{A}TestGlobalAttribution::test_point_budget_rows_are_distinct[{s}]" for s in range(4))),
    Mutant("markov-draws-identity-covariance", "scenarios.py",
           "draws = cond_mean + rng.standard_normal((m, H.size)) @ chol.T",
           "draws = cond_mean + rng.standard_normal((m, H.size))",
           tuple(f"{S}TestMarkovConditionalSamples::test_draws_match_the_closed_form_mixture_covariance[G{g}]"
                 for g in (1, 2, 3))),
    Mutant("exact-match-subsamples-m-matches", "values.py",
           "sel = cand if cand.size <= m else cand[rng.integers(0, cand.size, size=m)]",
           "sel = cand if cand.size < m else cand[rng.integers(0, cand.size, size=m)]",
           (V + "TestExactMatchSampler::test_exactly_m_matches_are_the_pool_in_row_order",)),
    Mutant("every-point-uses-point-0-orders", "attribution.py",
           "res = mc_asv(vf, self.spec, self.n_perms, _stream(self.seed, 0x9E12, point_index))",
           "res = mc_asv(vf, self.spec, self.n_perms, _stream(self.seed, 0x9E12, 0))",
           (A + "TestRunPlan::test_identical_points_at_two_indices_draw_their_own_orders",)),
    Mutant("mean-without-count-scan", "values.py",
           "if (lst[-1] is first or lst[-1] == first) and lst.count(first) == len(lst):",
           "if lst[-1] is first or lst[-1] == first:",
           tuple(f"{V}TestMeanAndStderr::test_equal_ends_with_a_different_middle_are_averaged[{i}]"
                 for i in ("0.5_0.25_0.5", "0.0_0.3_-0.0", "0.3_0.3_0.7_0.3", "-0.0_1.0_1.0_0.0",
                           "1e+300_-1e+300_1e+300"))),
    Mutant("splice-tiled-m-times", "values.py",
           "rows = np.where(np.tile(keep, k), self._x_tiled, self._draws_flat).reshape(-1, self.n)",
           "rows = np.where(np.tile(keep, self.m), self._x_tiled, self._draws_flat).reshape(-1, self.n)",
           (V + "TestCaching::test_a_chunked_call_gives_each_mask_the_bits_of_its_own_call[12-background-3-full-chunk]",)),
    Mutant("splice-repeated-not-tiled", "values.py",
           "rows = np.where(np.tile(keep, k), self._x_tiled, self._draws_flat).reshape(-1, self.n)",
           "rows = np.where(np.repeat(keep, k, axis=1), self._x_tiled, self._draws_flat).reshape(-1, self.n)",
           (V + "TestCaching::test_a_chunked_call_gives_each_mask_the_bits_of_its_own_call[12-background-3-full-chunk]",)),
    Mutant("enumeration-admits-the-order-limit", "coalitions.py",
           "if (total := int(counts.sum())) >= MAX_EXACT_ORDERS:",
           "if (total := int(counts.sum())) > MAX_EXACT_ORDERS:",
           (C + "TestEnumerate::test_refuses_an_order_count_past_the_limit_before_building_it",)),
    Mutant("class-index-of-any-number", "values.py",
           "if not (_is_int(y) and 0 <= y < pred.n_classes):",
           "if not 0 <= y < pred.n_classes:",
           (V + "TestOffManifold::test_validation",)),
    Mutant("bool-mask-read-as-int", "values.py",
           "if type(mask) is bool or bool in map(type, more):",
           "if False:",
           (V + "TestCaching::test_a_hit_rejects_the_keys_a_miss_rejects[bool]",
            V + "TestCaching::test_a_bad_mask_anywhere_in_a_call_evaluates_nothing[bool]")),
    Mutant("background-non-finite-accepted", "values.py",
           "if not np.isfinite(self.rows).all():",
           "if False:",
           (V + "TestBackgroundSet::test_validation",)),
]


def mutate(text: str, mutant: Mutant) -> str:
    """text with mutant.old, the one line that reads so once unindented, replaced by mutant.new."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise LookupError(f"{mutant.name}: {mutant.old!r} is on {len(hits)} lines of {mutant.file}, not 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + mutant.new + "\n"
    return "".join(lines)


def passing(tests: list[str], mutant: Mutant | None = None) -> set[str] | str:
    """Those of tests that pass with mutant applied (none: the tree as it is), or why they could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            target = tmp / "src" / "asymshap" / mutant.file
            try:
                target.write_text(mutate(target.read_text(), mutant))
            except LookupError as exc:
                return str(exc)
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rA",
                               *tests], cwd=tmp, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        return f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"
    return {line.removeprefix("PASSED ") for line in done.stdout.splitlines() if line.startswith("PASSED ")}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # A test that fails without its mutant would kill it for nothing, so every id must pass first.
    tests = sorted({test for m in chosen for test in m.kills})
    baseline = passing(tests)
    if isinstance(baseline, str) or len(baseline) < len(tests):
        print("FAIL unmutated tree", baseline if isinstance(baseline, str) else
              "".join(f"\n  fails {test}" for test in tests if test not in baseline))
        return 1
    failed = 0
    for mutant in chosen:
        survivors = passing(list(mutant.kills), mutant)
        problems = [survivors] if isinstance(survivors, str) else [
            f"survived {test}" for test in mutant.kills if test in survivors]
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'killed'} {mutant.name}", *problems, sep="\n  ", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

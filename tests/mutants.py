"""Hand-made faults in the package, each with the tests that must catch it.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py              # every mutant
    python tests/mutants.py del-u ...    # the named mutants

For each mutant the script copies `src/` to a temporary directory, replaces
the one occurrence of `old` with `new` in `src/jointhash/<file>`, and runs the
mutant's tests against that copy. The mutant is caught when every one of
those tests fails; it survives when any passes. An `old` text that no longer
occurs exactly once is reported as stale, and the mutant is not run. A
mutant that is retired or changed is named in CHANGES.md, as any test change
is. `tests/test_mutants.py` checks in tier-1 that every `old` text occurs
exactly once and that every named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jointhash"

Mutant = namedtuple("Mutant", "name file old new tests")

_MEMORY = "tests/test_trainer.py::TestEncodeMemory::"
_CANONICAL = "tests/test_data.py::test_other_label_files_go_line_by_line"
_LABEL_RULE = "tests/test_data.py::TestOneLabelRule::"
_SHARED = "tests/test_metrics.py::TestSharedRankings::"

MUTANTS = [
    # the one block loop of encode and encode_database, and the one check of
    # labels as class indices
    Mutant("del-u", "train.py", "        del u\n", "",
           [_MEMORY + "test_peak_is_one_block_and_its_u"]),
    Mutant("class-index-above-range", "data.py",
           "np.maximum.reduce(y) >= classes", "np.maximum.reduce(y) > classes",
           ["tests/test_objective.py::TestClassIndices::"
            "test_out_of_range_rejected_by_loss_parts[3]",
            "tests/test_data.py::TestDatasetValidation::"
            "test_same_message_as_objective[above]"]),
    Mutant("no-empty-block", "data.py", "range(0, max(n, 1), step)",
           "range(0, n, step)",
           ["tests/test_trainer.py::TestEncodeBlocks::test_width_checked_when_empty",
            "tests/test_data.py::TestStreamedDataset::"
            "test_empty_file_gives_one_empty_block[32]"]),
    Mutant("label-dtype-gate", "data.py",
           '    if raw.dtype.kind not in "biuf":\n', "    if False:\n",
           [_LABEL_RULE + "test_dataset_raises_data_error[integer_strings]",
            _LABEL_RULE + "test_objective_raises_dimension_error[none]",
            _LABEL_RULE + "test_writer_raises_data_error_and_keeps_the_file"
            "[float_strings]"]),
    Mutant("unsigned-label-wrap", "data.py",
           '(raw if raw.dtype.kind == "u" else y)', "y",
           [_LABEL_RULE + "test_dataset_raises_data_error[uint64_wraps_int64]",
            _LABEL_RULE + "test_writer_raises_data_error_and_keeps_the_file"
            "[uint64_max]"]),
    Mutant("ragged-labels-unguarded", "data.py",
           "    except ValueError:  # numpy refuses ragged nested sequences\n",
           "    except TypeError:\n",
           [_LABEL_RULE + "test_dataset_raises_data_error[ragged]",
            _LABEL_RULE + "test_objective_raises_dimension_error[ragged]",
            _LABEL_RULE + "test_writer_raises_data_error_and_keeps_the_file"
            "[ragged]"]),
    Mutant("float-beyond-int64-not-integer", "data.py",
           "if raw[row] == np.floor(raw[row]) and np.isfinite(raw[row]):",
           "if False:",
           [_LABEL_RULE + "test_dataset_raises_data_error[float_beyond_int64]",
            _LABEL_RULE + "test_objective_raises_dimension_error"
            "[float_below_int64]",
            _LABEL_RULE + "test_writer_raises_data_error_and_keeps_the_file"
            "[float_beyond_int64]"]),
    Mutant("non-integral-label-without-row", "data.py",
           'f"label {raw[row]} in row {row} is not an integer class index"',
           'f"label {raw[row]} is not an integer class index"',
           ["tests/test_data.py::TestDatasetValidation::"
            "test_non_integral_label_names_row[2.5]"]),
    # feature blocks and encode memory
    Mutant("eight-mib-blocks", "data.py", "_BLOCK_BYTES = 1 << 20",
           "_BLOCK_BYTES = 8 << 20",
           [_MEMORY + "test_peak_is_one_block_and_its_u",
            _MEMORY + "test_wide_features_peak_independent_of_rows",
            _MEMORY + "test_row_floor_sets_the_block_when_very_wide"]),
    Mutant("affine-hash-bias-temporary", "model.py",
           "    u = f @ params.hash_weights.T\n    u += params.hash_bias\n",
           "    u = f @ params.hash_weights.T + params.hash_bias\n",
           [_MEMORY + "test_peak_is_one_block_and_its_u"]),
    Mutant("no-block-finite-check", "data.py",
           "            if not _all_finite(block):\n", "            if False:\n",
           ["tests/test_data.py::TestFeatureFile::"
            "test_non_finite_in_later_block_names_first[32]",
            "tests/test_cli.py::TestStreamingEncode::test_nan_in_second_block[64]"]),
    # the canonical label parser
    Mutant("canonical-no-range-check", "data.py",
           "    if labels.max() > top:\n        return None\n", "",
           ["tests/test_data.py::TestLabelFile::test_out_of_range_names_line",
            _CANONICAL + "[at_classes]"]),
    Mutant("canonical-no-final-newline-check", "data.py",
           'if not body.size or body[-1] != ord("\\n"):', "if not body.size:",
           [_CANONICAL + "[no_end]"]),
    Mutant("canonical-no-digit-limit", "data.py",
           "if lengths.min() < 1 or lengths.max() > 10:",
           "if lengths.min() < 1:",
           [_CANONICAL + "[wraps_int64]"]),
    Mutant("canonical-no-blank-line-check", "data.py",
           "if lengths.min() < 1 or lengths.max() > 10:",
           "if lengths.max() > 10:",
           [_CANONICAL + "[blank]", _CANONICAL + "[newline]"]),
    # evaluate's per-query pass and the report writers
    Mutant("radius-hits-searchsorted-right", "metrics.py",
           "hits = np.searchsorted(hit_ranks, counts)\n",
           'hits = np.searchsorted(hit_ranks, counts, side="right")\n',
           ["tests/test_metrics.py::TestPrecisionRecallCurve::"
            "test_radius_zero_single_match",
            "tests/test_metrics.py::TestPrecisionRecallCurve::"
            "test_matches_radius_search_oracle"]),
    Mutant("no-chunk-separator", "metrics.py",
           "        if start:\n            fh.write(separator)\n", "",
           ["tests/test_metrics.py::TestReportWriters::"
            "test_rows_at_chunk_boundary_match_reference[8193]"]),
    # evaluate's frontier and the tail it sums in blocks
    Mutant("tail-frontier-one-short", "metrics.py",
           "first, last = int(hit_ranks[0]), int(hit_ranks[-1])\n",
           "first, last = int(hit_ranks[0]), int(hit_ranks[-1]) - 1\n",
           ["tests/test_metrics.py::TestEvaluate::test_hand_built_five_item_table",
            _SHARED + "test_tail_of_one_rank",
            _SHARED + "test_blocked_tail_with_moving_frontier[plain]"]),
    Mutant("tail-recall-counts-zero-relevant", "metrics.py",
           "            zero_relevant += 1\n            continue\n",
           "            zero_relevant += 1\n            relevant[kept] = 0.0\n"
           "            kept += 1\n            continue\n",
           [_SHARED + "test_tail_of_one_rank",
            _SHARED + "test_blocked_tail_with_moving_frontier[leave_one_out]"]),
    Mutant("tail-summed-in-order-of-r", "metrics.py",
           "total = np.add.reduce(quotients[picks], axis=0)",
           "total = np.add.reduce(quotients[np.sort(picks)], axis=0)",
           [_SHARED + "test_tail_of_one_rank",
            _SHARED + "test_blocked_tail_with_moving_frontier[plain]"]),
    Mutant("one-column-tail-block", "metrics.py",
           "k = k_float[lo:max(hi, lo + 2)]", "k = k_float[lo:hi]",
           [_SHARED + "test_tail_of_one_rank",
            _SHARED + "test_blocked_tail_with_moving_frontier[leave_one_out]"]),
    # the one grouping of equal query codes behind evaluate and query
    Mutant("group-value-made-every-row", "index.py",
           "        if group not in held:\n", "        if True:\n",
           ["tests/test_index.py::TestPerGroup::"
            "test_make_called_once_per_key_with_its_rows_ascending",
            _SHARED + "test_equal_to_per_query_reference[plain-interleaved-12]",
            "tests/test_cli.py::TestQuery::test_repeated_codes_ranked_once[False]"]),
    Mutant("group-value-never-released", "index.py",
           "yield held.pop(group) if rows[group][-1] == row else held[group]",
           "yield held[group]",
           ["tests/test_index.py::TestPerGroup::"
            "test_value_released_after_its_last_row"]),
    # ranking after the cut radius
    Mutant("quicksort-within-radius", "index.py",
           'order = rows[np.argsort(d[rows], kind="stable")[:depth]]',
           'order = rows[np.argsort(d[rows], kind="quicksort")[:depth]]',
           ["tests/test_index.py::TestRankAll::test_depth_is_prefix_of_brute_force[64]"]),
    Mutant("no-trim-to-depth", "index.py",
           'order = rows[np.argsort(d[rows], kind="stable")[:depth]]',
           'order = rows[np.argsort(d[rows], kind="stable")]',
           ["tests/test_index.py::TestRankAll::test_depth_is_prefix_of_brute_force[1]"]),
    Mutant("bisected-row-filter-strict", "index.py",
           "            rows = np.flatnonzero(d <= lo)\n",
           "            rows = np.flatnonzero(d < lo)\n",
           ["tests/test_index.py::TestRankAll::"
            "test_sampled_rows_nearest_runs_bisection[256-1]"]),
    # the gradient-check report
    Mutant("worst-block-by-max", "objective.py",
           "return names[int(np.argmax([self.errors[n] for n in names]))]",
           "return max(names, key=self.errors.get)",
           ["tests/test_objective.py::TestGradCheckResult::"
            "test_non_finite_error_is_the_worst[nan]",
            "tests/test_cli.py::TestGradcheck::test_non_finite_error_fails[nan]"]),
    Mutant("zero-difference-step", "objective.py",
           "if not (math.isfinite(h) and h > 0):",
           "if not (math.isfinite(h) and h >= 0):",
           ["tests/test_objective.py::TestFiniteDiffCheck::test_rejects_bad_step"]),
    # the pair logits that the loss and the backward pass share
    Mutant("pair-logits-einsum", "objective.py",
           "    x = 0.5 * (u @ u.T)\n", '    x = 0.5 * np.einsum("ik,jk->ij", u, u)\n',
           ["tests/test_objective.py::TestFusedStep::"
            "test_forward_holds_pair_logits_and_backward_keeps_them",
            "tests/test_trainer.py::TestFusedStep::"
            "test_bitwise_equal_to_two_pass_step_at_acceptance_shape[0.2]"]),
    # one per oracle: finite differences, brute-force ranking, mpmath
    Mutant("oracle-finite-differences", "objective.py",
           "    du = mism @ u\n    du *= 0.5\n", "    du = mism @ u\n    du *= 0.25\n",
           ["tests/test_objective.py::TestGradients::test_suite_runs_twenty_configs"]),
    Mutant("oracle-brute-force-ranking", "index.py",
           'order = np.argsort(d, kind="stable")',
           'order = np.argsort(d, kind="quicksort")',
           ["tests/test_index.py::TestRankAll::test_matches_brute_force_oracle"]),
    Mutant("oracle-mpmath", "objective.py",
           "return np.maximum(x, 0.0) + np.log1p(e)",
           "return np.maximum(x, 0.0) + np.log(1.0 + e)",
           ["tests/test_objective.py::TestSimilarityLoss::test_large_logit_no_overflow"]),
]


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.file).read_text().count(mutant.old)


def survivors(mutant: Mutant) -> list[str]:
    """The mutant's tests that pass with it applied to a copy of `src/`."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC.parent, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "jointhash" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # a usage or collection error
        return [f"pytest exited {proc.returncode}: "
                f"{(proc.stdout + proc.stderr).strip().splitlines()[-1:]}"]
    failed = {line[len("FAILED "):].split(" - ")[0]
              for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        count = occurrences(mutant)
        if count != 1:
            print(f"STALE    {mutant.name}: old text occurs {count} times "
                  f"in {mutant.file}")
            bad += 1
            continue
        passed = survivors(mutant)
        print(f"{'SURVIVED' if passed else 'caught  '} {mutant.name}"
              + (f": {passed}" if passed else ""))
        bad += bool(passed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import json
import re

import pytest

from leibnil import cli, search
from leibnil.algebra import ChainVerificationError, algebra_from_constants, is_right_leibniz
from leibnil.cli import main
from leibnil.fields import GF
from leibnil.series import InclusionCheck

from .conftest import BENCH_GOLDEN, FIXTURE_NAMES, FIXTURES, GOLDEN


def fx(name):
    return str(FIXTURES / f"{name}.json")


class TestCheck:
    def test_h3_reports_lie(self, capsys):
        assert main(["check", fx("h3")]) == 0
        out = capsys.readouterr().out
        assert "right Leibniz: OK, left Leibniz: OK (Lie)" in out

    def test_l2_passes(self, capsys):
        assert main(["check", fx("l2")]) == 0
        assert "right Leibniz: OK" in capsys.readouterr().out

    def test_a2_passes_right_only(self, capsys):
        assert main(["check", fx("a2")]) == 0
        out = capsys.readouterr().out
        assert "right Leibniz: OK" in out and "left Leibniz: FAILED" in out

    def test_broken_fails_and_reports_triple(self, capsys):
        assert main(["check", fx("broken")]) == 1
        out = capsys.readouterr().out
        assert "right Leibniz: FAILED" in out
        assert "triple (e" in out and "lhs" in out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/nothing.json"]) == 2

    def test_bad_schema_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "dim": 2, "field": {"type": "Q"},
                                   "constants": [[1, 1, 2, 0.5]]}))
        assert main(["check", str(bad)]) == 2

    @pytest.mark.parametrize("text, key", [
        ('{"name": "x", "dim": 2, "field": {"type": "Q"}, '
         '"constants": [[1, 1, 2, 1]], "constants": []}', "constants"),
        ('{"name": "x", "dim": 2, "field": {"type": "Q"}, "constants": [], '
         '"ideals": {"z": [["0", "1"]], "z": [["1", "0"]]}}', "z"),
    ], ids=["top_level", "ideal_name"])
    def test_duplicate_key_is_usage_error(self, text, key, tmp_path, capsys):
        dup = tmp_path / "dup.json"
        dup.write_text(text)
        assert main(["profile", str(dup), "--nmax", "3"]) == 2
        assert capsys.readouterr().err == f"error: {dup}: duplicate key {key!r}\n"

    def test_same_key_at_different_depths_is_valid(self, tmp_path, capsys):
        # "name" is a top-level key and an ideal name; "field" likewise
        ok = tmp_path / "ok.json"
        ok.write_text('{"name": "x", "dim": 2, "field": {"type": "Q"}, "constants": [], '
                      '"ideals": {"name": [["0", "1"]], "field": [["1", "0"]]}}')
        assert main(["profile", str(ok), "--ideal", "name", "--nmax", "3"]) == 0

    @pytest.mark.parametrize("field, literal, message", [
        ({"type": "Q"}, "1/0", "zero denominator in rational literal '1/0'"),
        ({"type": "Fp", "p": 3}, "1/3", "denominator of '1/3' is zero in GF(3)"),
    ], ids=["Q", "GF3"])
    def test_zero_denominator_is_usage_error(self, field, literal, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "dim": 2, "field": field,
                                   "constants": [[2, 1, 2, literal]]}))
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "check.json"
        assert main(["check", fx("h3"), "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["right_leibniz"] and report["lie"]


class TestProfile:
    def test_l2_bound_line(self, capsys):
        assert main(["profile", fx("l2")]) == 0
        out = capsys.readouterr().out
        assert "bound 4n^2-2n+1 = 31: SATISFIED" in out
        assert "right index 3" in out

    def test_abelian_bound_13(self, capsys):
        assert main(["profile", fx("abelian2")]) == 0
        assert "bound 4n^2-2n+1 = 13: SATISFIED" in capsys.readouterr().out

    def test_a2_negative_verdicts(self, capsys):
        assert main(["profile", fx("a2")]) == 0
        out = capsys.readouterr().out
        assert "not right nilpotent (fixed point at dim 1)" in out
        assert "left index 3" in out
        assert "not Es_k-right nil for any k" in out
        assert "Es_1-left nil" in out

    def test_named_ideal(self, capsys):
        assert main(["profile", fx("h3"), "--ideal", "center"]) == 0
        assert "ideal: center" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--kmax", "0"], "k_max must be >= 1"),
        (["--kmax", "-3"], "k_max must be >= 1"),
        (["--nmax", "1"], "n_max must be >= 2"),
    ])
    def test_series_range_is_usage_error(self, flags, message, capsys):
        assert main(["profile", fx("l2"), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_ideal_is_usage_error(self, capsys):
        assert main(["profile", fx("h3"), "--ideal", "nope"]) == 2

    def test_non_ideal_subspace_is_usage_error(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "a2.json").read_text())
        data["ideals"]["bad"] = [["1", "0"]]
        path = tmp_path / "a2bad.json"
        path.write_text(json.dumps(data))
        assert main(["profile", str(path), "--ideal", "bad"]) == 2

    def test_zero_denominator_in_an_ideal_is_usage_error(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "a2.json").read_text())
        data["ideals"]["bad"] = [["0", "1/0"]]
        path = tmp_path / "a2bad.json"
        path.write_text(json.dumps(data))
        assert main(["profile", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: zero denominator in rational literal '1/0'\n"

    def test_broken_algebra_fails_math(self, capsys):
        assert main(["profile", fx("broken")]) == 1

    def test_broken_invariant_exits_1_with_message(self, monkeypatch, capsys,
                                                   h3_bundle_with_non_ideal_b2):
        monkeypatch.setattr(cli, "compute_series", lambda *args: h3_bundle_with_non_ideal_b2)
        assert main(["profile", fx("h3")]) == 1
        assert "mathematical check failed: B_2 is not a two-sided ideal" in \
            capsys.readouterr().err

    def test_full_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", fx("l2"), "--full"])
        assert exc.value.code == 2

    def test_json_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["profile", fx("l2"), "--seed", "5", "--json", str(p1)]) == 0
        assert main(["profile", fx("l2"), "--seed", "5", "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        report = json.loads(p1.read_text())
        assert report["profile"]["right_index"] == 3
        assert report["profile"]["bound_satisfied"] is True
        assert report["inclusions"]["all_passed"] is True


    @pytest.mark.parametrize("nmax", ["2", "3", "12"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_seed_changes_nothing_but_its_echo(self, algebras, name, nmax, tmp_path, capsys):
        # every inclusion check is decided exactly, so the seed is only echoed
        for ideal in [None, *algebras[name].ideals]:
            flags = ["--nmax", nmax] + (["--ideal", ideal] if ideal else [])
            runs = []
            for seed in ("0", "7"):
                out = tmp_path / f"seed{seed}.json"
                assert main(["profile", fx(name), *flags, "--seed", seed,
                             "--json", str(out)]) == 0
                runs.append((capsys.readouterr().out.replace(f"(seed {seed},", "(seed _,"),
                             out.read_text().replace(f'"seed": {seed}', '"seed": _')))
            assert runs[0] == runs[1]
            assert runs[0][1].count('"seed": _') == 2


class TestNormalize:
    def test_basic_expansion(self, capsys):
        assert main(["normalize", "a*(b*c)"]) == 0
        assert "+1*[a,b,c] -1*[a,c,b]" in capsys.readouterr().out

    def test_right_word_untouched(self, capsys):
        assert main(["normalize", "a*b*c"]) == 0
        assert "+1*[a,b,c]" in capsys.readouterr().out

    def test_evaluation_cross_check(self, capsys):
        code = main(["normalize", "x*(a*b*c)", "--algebra", fx("h3"),
                     "--assign", "x=1,0,0", "--assign", "a=0,1,0",
                     "--assign", "b=1,1,0", "--assign", "c=0,0,1"])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_parse_error_is_usage_error(self, capsys):
        assert main(["normalize", "a*(b"]) == 2

    def test_unassigned_generator_is_usage_error(self, capsys):
        assert main(["normalize", "a*b", "--algebra", fx("h3"),
                     "--assign", "a=1,0,0"]) == 2

    def test_length_cap(self, capsys):
        expr = "*".join(["a"] * 11)
        assert main(["normalize", expr]) == 2
        assert main(["normalize", expr, "--max-term-length", "12"]) == 0

    def test_right_nested_term_at_the_length_cap(self, capsys):
        expr = "a*(b*(c*(d*(e*(f*(g*(h*(i*j))))))))"
        assert main(["normalize", expr]) == 0
        normal = capsys.readouterr().out.splitlines()[1].removeprefix("normal: ")
        words = re.findall(r"[+-]\d+\*\[([a-z,]+)\]", normal)
        assert len(words) == 2 ** 8 == len(normal.split())
        assert all(sorted(w.split(",")) == list("abcdefghij") for w in words)

    def test_wrong_coordinate_count_is_usage_error(self, capsys):
        assert main(["normalize", "a", "--algebra", fx("h3"),
                     "--assign", "a=1,0"]) == 2

    def test_zero_denominator_assignment_is_usage_error(self, capsys):
        assert main(["normalize", "a*b", "--algebra", fx("a2"),
                     "--assign", "a=1/0,0", "--assign", "b=0,1"]) == 2
        assert capsys.readouterr().err == \
            "error: zero denominator in rational literal '1/0'\n"

    def test_json_flag_removed(self, tmp_path, capsys):
        out_path = tmp_path / "n.json"
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "a*(b*c)", "--json", str(out_path)])
        assert exc.value.code == 2
        assert not out_path.exists()


class TestDeeplyNestedInput:
    """Nesting past the interpreter's recursion limit is bad input, not a failed check."""

    @pytest.mark.parametrize("command", ["check", "profile"])
    def test_nested_json_is_usage_error(self, command, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main([command, str(deep)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: not valid JSON (")

    def test_nested_expression_is_usage_error(self, capsys):
        assert main(["normalize", "(" * 1200 + "a" + ")" * 1200]) == 2
        assert re.fullmatch(r"error: expression nested too deeply \(at position \d+\)\n",
                            capsys.readouterr().err)

    def test_long_product_is_a_length_error(self, capsys):
        # a*a*...*a parses to a left-nested tree 4,999 deep; its length is
        # counted before the cap is applied
        assert main(["normalize", "*".join(["a"] * 5000)]) == 2
        assert capsys.readouterr().err == \
            "error: term length 5000 exceeds --max-term-length 10\n"

    def test_long_left_nested_term_normalizes(self, capsys):
        # 3,000 leaves left-nested 2,999 deep, past the recursion limit: the
        # term is already a right word, so it normalizes to one word, and
        # both evaluations fold along the left spine without recursing
        expr = "*".join(["a"] * 3000)
        assert main(["normalize", expr, "--max-term-length", "5000",
                     "--algebra", fx("h3"), "--assign", "a=1,0,0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "input:  length 3000, weight 0"
        assert out[1] == "normal: +1*[" + ",".join(["a"] * 3000) + "]"
        assert out[2:] == ["evaluate(tree)   = (0, 0, 0)", "evaluate(normal) = (0, 0, 0)",
                           "MATCH"]

    def test_moderate_nesting_parses(self, capsys):
        assert main(["normalize", "(" * 100 + "a*b" + ")" * 100]) == 0
        assert "normal: +1*[a,b]" in capsys.readouterr().out


class TestSearch:
    def test_dim2_exhaustive(self, capsys, tmp_path):
        out_path = tmp_path / "s.json"
        assert main(["search", "--dim", "2", "--field", "F3",
                     "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["params"]["mode"] == "exhaustive"
        assert report["valid"] > 0
        assert report["bound_violations"] == []
        assert report["left_not_right_count"] >= 1

    @pytest.mark.parametrize("dim, samples", [(2, 0), (3, 5000)])
    def test_seed0_sweep_matches_its_goldens(self, dim, samples, tmp_path, capsys):
        # the corpus sweep: bench/golden holds the --json bytes, tests/golden the stdout
        name = f"search_dim{dim}_samples{samples}_seed0"
        out = tmp_path / "report.json"
        assert main(["search", "--dim", str(dim), "--field", "F3", "--samples", str(samples),
                     "--seed", "0", "--json", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
        assert out.read_bytes() == (BENCH_GOLDEN / f"{name}.json").read_bytes()

    def test_sampled_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for p in (p1, p2):
            assert main(["search", "--dim", "3", "--field", "F3", "--samples",
                         "200", "--seed", "9", "--json", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_limit_marks_partial(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        assert main(["search", "--dim", "2", "--field", "F3", "--limit", "10",
                     "--json", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["partial"] is True

    def test_invariant_failure_names_the_candidate(self, monkeypatch, capsys):
        # compute_series raises this when L does not annihilate the squares
        # ideal (in es_of), the one invariant on a candidate's path
        message = "L . I is not zero for the span I of the squares"

        def fail(b, n_max):
            raise ChainVerificationError(message)

        monkeypatch.setattr(search, "compute_series", fail)
        with pytest.raises(ChainVerificationError) as exc:
            search.run_search(2, 3, 0, 0)
        first_valid = next(c for c in search.sparse_tensors_exhaustive(2, 3)
                           if is_right_leibniz(algebra_from_constants("t", 2, GF(3), c)))
        assert str(exc.value) == f"candidate {search._constants_key(first_valid)}: {message}"
        assert main(["search", "--dim", "2"]) == 1
        assert re.search(r"^mathematical check failed: candidate [0-9,:;]+: L \. I is not",
                         capsys.readouterr().err, re.M)

    def test_filtration_failure_counts_every_valid_candidate(self, monkeypatch, capsys):
        failing = InclusionCheck("filtration_products_respect_weight", False, "forced")
        monkeypatch.setattr(search, "filtration_check", lambda strong, alg: failing)
        report = search.run_search(2, 3, 0, 0)
        assert report["valid"] > 0
        assert report["filtration_violations"] == report["valid"]
        assert main(["search", "--dim", "2"]) == 1

    def test_bad_field_flag_is_usage_error(self, capsys):
        assert main(["search", "--field", "GF3"]) == 2
        assert main(["search", "--field", "F2"]) == 2

    def test_exhaustive_beyond_dim3_rejected(self, capsys):
        assert main(["search", "--dim", "4", "--samples", "0"]) == 2

    @pytest.mark.parametrize("flags", [["--dim", "3", "--samples", "-5"],
                                       ["--dim", "0"],
                                       ["--limit", "-3"]])
    def test_out_of_range_is_usage_error(self, flags, capsys):
        assert main(["search", *flags]) == 2


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        assert main(["profile", fx("h3"), "--ideal", "center"]) == 0
        assert "ideal: center" in capsys.readouterr().out
        assert main(["profile", fx("h3")]) == 0
        assert "ideal: full" in capsys.readouterr().out

        assert main(["normalize", "a", "--algebra", fx("h3"), "--assign", "a=1,0,0"]) == 0
        capsys.readouterr()
        assert main(["normalize", "a*b", "--algebra", fx("h3"), "--assign", "b=0,1,0"]) == 2
        assert capsys.readouterr().err == "error: unassigned generators: a\n"

        out_path = tmp_path / "s.json"
        assert main(["search", "--limit", "5", "--json", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["partial"] is True
        capsys.readouterr()
        assert main(["search", "--json", str(out_path)]) == 0
        assert "partial" not in capsys.readouterr().out
        assert json.loads(out_path.read_text())["partial"] is False

"""CLI subcommands: formats, exit codes, determinism."""

import hashlib
import json

import pytest

from hlmenger import bcdc, build_graph, cli, edgelist, generate, \
    linegraph, topologies
from hlmenger.cli import main
from hlmenger.report import VerificationReport

from util import NOT_HL4_EDGES, cut_disconnects, lgraph, network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(report_text: str) -> dict:
    data = json.loads(report_text)
    data.pop("timing_seconds", None)
    return data


class TestGen:
    def test_crossed_3(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "crossed", "--n", "3")
        assert code == 0
        g = edgelist.loads(out)
        assert g.n_vertices == 8 and len(g.edges) == 12
        assert g.has_edge(0, 4)  # the 000-100 cross edge

    def test_hypercube_1_is_k2(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "hypercube", "--n", "1")
        assert code == 0
        assert edgelist.loads(out).edges == ((0, 1),)

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--family", "random", "--n", "4",
                         "--seed", "42")
        _, out2, _ = run(capsys, "gen", "--family", "random", "--n", "4",
                         "--seed", "42")
        assert out1 == out2

    def test_round_trip_through_file(self, tmp_path, capsys):
        out_path = tmp_path / "q4.txt"
        code, _, _ = run(capsys, "gen", "--family", "ltq", "--n", "4",
                         "--out", str(out_path))
        assert code == 0
        assert edgelist.loads(out_path.read_text()) == network("ltq", 4).graph

    def test_construction_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "c.json"
        run(capsys, "gen", "--family", "random", "--n", "3", "--seed", "7",
            "--construction", str(sidecar))
        record = json.loads(sidecar.read_text())
        assert record["dimension"] == 3
        assert sorted(record["bijection"]) == [0, 1, 2, 3]
        assert record["left"]["dimension"] == 2

    def test_random_without_seed_fails(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "random", "--n", "3")
        assert code == 2
        assert "seed" in err


class TestLinegraph:
    def test_from_family(self, capsys):
        code, out, _ = run(capsys, "linegraph", "--family", "hypercube",
                           "--n", "3")
        assert code == 0
        g = edgelist.loads(out)
        assert g.n_vertices == 12 and len(g.edges) == 24

    def test_from_file(self, tmp_path, capsys):
        base = tmp_path / "k2.txt"
        base.write_text("p 2 1\ne 0 1\n")
        code, out, _ = run(capsys, "linegraph", "--in", str(base))
        assert code == 0
        g = edgelist.loads(out)
        assert g.n_vertices == 1 and len(g.edges) == 0

    def test_bcdc(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a3.txt", tmp_path / "b3.txt"
        code, _, _ = run(capsys, "linegraph", "--bcdc", "--n", "3",
                         "--out-original", str(a_path), "--out", str(b_path))
        assert code == 0
        assert edgelist.loads(a_path.read_text()).n_vertices == 20
        assert edgelist.loads(b_path.read_text()).n_vertices == 12

    def test_provenance_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "prov.json"
        run(capsys, "linegraph", "--family", "crossed", "--n", "3",
            "--provenance", str(sidecar))
        record = json.loads(sidecar.read_text())
        assert len(record["line_vertex_to_base_edge"]) == 12
        assert len(record["f_vertices"]) == 4

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("p 2 5\ne 0 1\n")
        code, _, err = run(capsys, "linegraph", "--in", str(bad))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("flag", [("--family", "hypercube"),
                                      ("--in", "k2.txt"), ("--seed", "3")])
    def test_flag_bcdc_ignores_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "linegraph", "--bcdc", "--n", "3",
                             *flag)
        assert code == 2 and out == ""
        assert f"error: {flag[0]} does not apply to --bcdc" in err

    def test_out_original_without_bcdc_exits_2(self, tmp_path, capsys):
        original = tmp_path / "a3.txt"
        code, out, err = run(capsys, "linegraph", "--family", "crossed",
                             "--n", "3", "--out-original", str(original))
        assert code == 2 and out == "" and not original.exists()
        assert "error: --out-original applies only with --bcdc" in err


def crossed3_file(tmp_path, capsys, edit):
    """CQ_3's edge list from `gen`, with its lines passed through edit."""
    path = tmp_path / "cq3.txt"
    run(capsys, "gen", "--family", "crossed", "--n", "3", "--out", str(path))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


class TestInputLabels:
    @pytest.mark.parametrize("argv", [("linegraph",),
                                      ("verify", "--check", "smec")])
    def test_partial_labels_exit_2(self, tmp_path, capsys, argv):
        path = crossed3_file(tmp_path, capsys, lambda lines: [
            line for line in lines
            if not line.startswith("l ") or line == "l 0 000"])
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 2 and out == ""
        assert "vertex 1 has no label" in err

    def test_second_label_line_exits_2(self, tmp_path, capsys):
        path = crossed3_file(tmp_path, capsys, lambda lines: [
            *lines, "l 0 000"])
        code, out, err = run(capsys, "verify", "--check", "smec",
                             "--in", str(path))
        assert code == 2 and out == ""
        assert "second l line for vertex 0" in err

    def test_label_not_the_id_bits_exit_2(self, tmp_path, capsys):
        path = crossed3_file(tmp_path, capsys, lambda lines: [
            "l 0 hello" if line == "l 0 000" else line for line in lines])
        code, out, err = run(capsys, "verify", "--check", "smec",
                             "--in", str(path))
        assert code == 2 and out == ""
        assert "vertex 0 is labeled 'hello'" in err


class TestVerify:
    def test_ft_smec_exhaustive_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "ft-smec",
                           "--family", "hypercube", "--n", "3", "--m", "2",
                           "--mode", "exhaustive")
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["visited"] == 301
        assert report["counts"]["failures"] == 0

    def test_tight_uncond_exits_1_with_certificate(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "tight-uncond",
                           "--family", "ltq", "--n", "4")
        assert code == 1
        w = json.loads(out)["witness"]
        assert w["fault_size"] == 5
        assert w["path_count"] < w["required"]
        L = lgraph("ltq", 4)
        from hlmenger import remove_edges
        faulty = remove_edges(L.graph, [tuple(e) for e in w["fault_edges"]])
        assert cut_disconnects(faulty, *w["pair"], w["cut"])

    def test_lemma32_exhaustive_full_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "lemma32",
                           "--family", "crossed", "--n", "3",
                           "--mode", "exhaustive")
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["visited"] == 55455
        assert report["parameters"]["floor"] == 11

    def test_lemma41_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "lemma41",
                           "--family", "crossed", "--n", "4",
                           "--mode", "sample", "--samples", "300",
                           "--seed", "3", "--adversarial")
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["floor"] == 30
        assert report["parameters"]["m"] == 11
        assert report["counts"]["visited"] >= 300

    def test_smec_check_on_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "net.txt"
        run(capsys, "gen", "--family", "random", "--n", "3", "--seed", "8",
            "--out", str(path))
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, out, _ = run(capsys, "verify", "--check", "smec",
                           "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["target"]["input_digest"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()
        assert opened == [str(path)]          # read once, then hashed

    def test_tight_cond_on_file(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        run(capsys, "gen", "--family", "crossed", "--n", "4",
            "--out", str(path))
        code, out, _ = run(capsys, "verify", "--check", "tight-cond",
                           "--in", str(path))
        assert code == 1
        assert json.loads(out)["witness"]["fault_size"] == 7

    def test_non_hl_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text(edgelist.dumps(build_graph(16, NOT_HL4_EDGES)))
        code, out, err = run(capsys, "verify", "--check", "tight-uncond",
                             "--in", str(path))
        assert code == 2 and out == ""
        assert "not a hypercube-like coding" in err

    def test_report_bytes_deterministic(self, tmp_path, capsys):
        argv = ("verify", "--check", "cond-ft-smec", "--family", "crossed",
                "--n", "4", "--mode", "sample", "--samples", "40",
                "--seed", "3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert strip_timing(out1) == strip_timing(out2)
        assert json.dumps(strip_timing(out1), sort_keys=True) == \
            json.dumps(strip_timing(out2), sort_keys=True)

    def test_jobs_flag_does_not_change_report(self, capsys):
        base = ("verify", "--check", "ft-smec", "--family", "mobius1",
                "--n", "3", "--m", "2")
        _, out1, _ = run(capsys, *base, "--jobs", "1")
        _, out2, _ = run(capsys, *base, "--jobs", "2")
        assert strip_timing(out1) == strip_timing(out2)

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--check", "smec", "--family",
                           "hypercube", "--n", "3", "--out", str(out_path))
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["check_name"] == "smec"
        assert report["schema_version"] == "1"

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "ft-smec",
                           "--family", "hypercube", "--n", "4",
                           "--m", "6", "--budget", "100")
        assert code == 2 and "budget" in err

    def test_appendix_a_requires_n4(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "appendixA",
                           "--family", "crossed", "--n", "3")
        assert code == 2 and "n=4" in err

    @pytest.mark.parametrize("check,n", [
        ("ft-smec", 1), ("cond-ft-smec", 2), ("lemma32", 2), ("lemma41", 3),
        ("appendixA", 3), ("appendixA", 5), ("tight-uncond", 2),
        ("tight-cond", 3),
    ])
    def test_bounded_checks_exit_2_below_minimum_dimension(self, capsys,
                                                           check, n):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", str(n))
        assert code == 2 and out == "" and f"error: {check} " in err

    @pytest.mark.parametrize("argv", [
        ("ft-smec", "--m", "-1"),
        ("lemma32", "--m", "-2"),
        ("cond-ft-smec", "--mode", "sample", "--samples", "-5"),
    ])
    def test_negative_sizes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--check", argv[0],
                             "--family", "hypercube", "--n", "3", *argv[1:])
        assert code == 2 and out == "" and "must be >= 0" in err

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "verify", "--check", "nonsense")[0] == 2
        assert run(capsys, "verify", "--check", "smec")[0] == 2  # no target
        assert run(capsys, "gen", "--family", "hypercube")[0] == 2  # no --n
        code, _, err = run(capsys, "linegraph", "--family", "hypercube")
        assert code == 2 and "need --in or --family plus --n" in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--check", "ft-smec",
                             "--family", "hypercube", "--n", "3",
                             "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs must be >= 1" in err

    @pytest.mark.parametrize("check,flag", [
        *((check, flag)
          for check in ("smec", "tight-uncond", "tight-cond")
          for flag in (("--m", "5"), ("--mode", "sample"),
                       ("--samples", "5"), ("--adversarial",))),
        *((check, ("--all-witnesses",))
          for check in ("smec", "ft-smec", "cond-ft-smec", "lemma32",
                        "lemma41", "appendixA")),
    ])
    def test_flag_the_check_ignores_exit_2(self, capsys, check, flag):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", "4", *flag)
        assert code == 2 and out == ""
        assert f"error: {flag[0]} does not apply to --check {check}" in err

    @pytest.mark.parametrize("check", ["ft-smec", "cond-ft-smec", "lemma32",
                                       "lemma41", "appendixA"])
    @pytest.mark.parametrize("mode", [(), ("--mode", "exhaustive")])
    def test_samples_without_sample_mode_exit_2(self, capsys, check, mode):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", "3", *mode,
                             "--samples", "5")
        assert code == 2 and out == ""
        assert "error: --samples applies only with --mode sample" in err

    @pytest.mark.parametrize("check", ["smec", "tight-uncond", "tight-cond"])
    def test_budget_with_smec_or_a_tightness_check_exit_2(self, capsys,
                                                          check):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", "3",
                             "--budget", "5")
        assert code == 2 and out == ""
        assert f"error: --budget does not apply to --check {check}" in err

    @pytest.mark.parametrize("check", ["ft-smec", "cond-ft-smec", "lemma32",
                                       "lemma41", "appendixA"])
    def test_budget_with_sample_mode_exit_2(self, capsys, check):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", "3",
                             "--mode", "sample", "--budget", "5")
        assert code == 2 and out == ""
        assert "error: --budget does not apply to --mode sample" in err

    @pytest.mark.parametrize("check,expect", [
        ("smec", 0), ("tight-uncond", 1), ("tight-cond", 1),
    ])
    def test_jobs_applies_to_every_check(self, capsys, check, expect):
        code, out, _ = run(capsys, "verify", "--check", check, "--family",
                           "hypercube", "--n", "4", "--jobs", "2")
        assert code == expect and json.loads(out)["check_name"] == check


def digest(report_text: str) -> str:
    report = VerificationReport.from_dict(json.loads(report_text))
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


class TestProgress:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv,total,failures", [
        (("lemma32", "--family", "crossed", "--n", "3", "--m", "7",
          "--mode", "sample", "--samples", "1400", "--seed", "2",
          "--adversarial"), 1518, 5),
        (("ft-smec", "--family", "hypercube", "--n", "3", "--m", "2"),
         301, 0),
    ], ids=["lemma32-sampled", "ft-smec-exhaustive"])
    def test_progress_goes_to_stderr_and_leaves_the_report(
            self, capsys, argv, total, failures, jobs):
        base = ("verify", "--check", *argv, "--jobs", jobs)
        code, plain, quiet = run(capsys, *base)
        assert quiet == ""
        code2, out, err = run(capsys, *base, "--progress")
        assert code2 == code and digest(out) == digest(plain)
        lines = err.splitlines()
        assert len(lines) == -(-total // 512)
        assert all(line.startswith("progress: ") for line in lines)
        assert lines[-1].startswith(f"progress: {total}/{total} sets, ")
        assert lines[-1].endswith(f", {failures} failures")

    @pytest.mark.parametrize("check", ["smec", "tight-uncond", "tight-cond"])
    def test_progress_outside_campaign_checks_exit_2(self, capsys, check):
        code, out, err = run(capsys, "verify", "--check", check,
                             "--family", "hypercube", "--n", "4",
                             "--progress")
        assert code == 2 and out == ""
        assert f"error: --progress does not apply to --check {check}" in err


class Generated(Exception):
    """Raised by the patched generators: the request got past the preflight."""


@pytest.fixture
def no_generation(monkeypatch):
    """Make every network generator and the line-graph builder raise
    Generated at once, so a missing preflight fails fast instead of
    allocating a huge network or line graph."""
    def refuse(*args, **kwargs):
        raise Generated(args)
    monkeypatch.setattr(topologies, "_gen_named_recursive", refuse)
    monkeypatch.setattr(topologies, "gen_random_hl", refuse)
    monkeypatch.setattr(linegraph, "gen_family", refuse)
    monkeypatch.setattr(linegraph, "canonical_edge", refuse)
    monkeypatch.setattr(linegraph, "build_graph", refuse)


def hypercube_edge_list(n):
    """Edge-list text of Q_n, written without the generators."""
    lines = [f"p {1 << n} {n << (n - 1)}"]
    lines.extend(f"e {v} {v | 1 << i}" for v in range(1 << n)
                 for i in range(n) if not v >> i & 1)
    return "\n".join(lines) + "\n"


def star_edge_list(leaves):
    """Edge-list text of K_{1,leaves}, whose line graph is K_leaves."""
    return f"p {leaves + 1} {leaves}\n" + "".join(
        f"e 0 {v}\n" for v in range(1, leaves + 1))


class TestSizePreflight:
    # L(HL_14): V = 14 * 2^13, E = 14 * 13 * 2^13 > MAX_LINE_EDGES
    V14, E14 = "114688", "1490944"

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "crossed", "--n", "14"),
        ("gen", "--family", "random", "--seed", "1", "--n", "14"),
        ("linegraph", "--family", "ltq", "--n", "14"),
        ("linegraph", "--bcdc", "--n", "14"),
        ("verify", "--check", "smec", "--family", "hypercube", "--n", "14"),
    ])
    def test_line_graph_past_the_limit_exits_2(self, capsys, no_generation,
                                               argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert self.V14 in err and self.E14 in err
        assert "MAX_LINE_EDGES" in err

    def test_api_refuses_before_generating(self, no_generation):
        assert 14 * 13 << 13 > topologies.MAX_LINE_EDGES >= 13 * 12 << 12
        for call in (lambda: generate("mobius1", 14),
                     lambda: generate("random", 14, 3),
                     lambda: bcdc(14)):
            with pytest.raises(ValueError, match=self.E14):
                call()

    def test_huge_dimension_is_named_without_computing_it(self,
                                                          no_generation):
        with pytest.raises(ValueError, match=r"2\^999999999 edges"):
            generate("hypercube", 10 ** 9)

    def test_largest_allowed_dimension_reaches_the_generator(self,
                                                             no_generation):
        with pytest.raises(Generated):
            generate("hypercube", 13)
        with pytest.raises(Generated):
            bcdc(13)

    @pytest.mark.parametrize("argv", [("verify", "--check", "smec"),
                                      ("linegraph",)])
    def test_in_file_past_the_limit_exits_2(self, capsys, tmp_path,
                                            no_generation, argv):
        # an HL_14 file passes edgelist.loads and hl_from_graph
        path = tmp_path / "q14.txt"
        path.write_text(hypercube_edge_list(14))
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 2 and out == ""
        assert self.V14 in err and self.E14 in err
        assert "MAX_LINE_EDGES" in err

    def test_line_graph_size_is_summed_over_base_degrees(self, capsys,
                                                         tmp_path,
                                                         no_generation):
        # L(K_{1,k}) = K_k: C(1415, 2) = 1000405 edges are refused, and
        # C(1414, 2) = 998991 reach the builder
        path = tmp_path / "star.txt"
        path.write_text(star_edge_list(1415))
        code, out, err = run(capsys, "linegraph", "--in", str(path))
        assert code == 2 and out == ""
        assert "V = 1415 vertices and E = 1000405 edges" in err
        path.write_text(star_edge_list(1414))
        with pytest.raises(Generated):
            run(capsys, "linegraph", "--in", str(path))

    @pytest.mark.parametrize("argv", [("verify", "--check", "smec"),
                                      ("linegraph",)])
    def test_in_file_p_line_past_the_limit_exits_2(self, capsys, tmp_path,
                                                   monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise Generated(args[0])
        monkeypatch.setattr(edgelist, "build_graph", refuse)
        path = tmp_path / "huge.txt"
        path.write_text("p 1000001 0\n")
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 2 and out == ""
        assert "p line declares 1000001 vertices" in err
        assert "MAX_LINE_EDGES" in err

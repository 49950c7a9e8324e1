"""Command-line behavior: outputs, exit codes, JSON mode, offline guarantee."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sourcescope
from sourcescope import cli
from sourcescope.cli import build_parser, main
from sourcescope.features import get_fetch_counters, reset_fetch_counters
from tests.conftest import write_partial_site
from tests.synth import balanced_dataset, write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def offline(fixture_sites):
    return ["--offline-root", str(fixture_sites)]


@pytest.fixture()
def dataset_csv(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "dataset.csv"
    write_csv(path, balanced_dataset(rng, per_class=150))
    return path


class TestScoreCommand:
    def test_share_exit_zero(self, capsys, offline):
        code, out, err = run_cli(capsys, "score", "https://en-full.test", *offline)
        assert code == 0
        assert "0.0564" in out
        assert "share" in out
        assert err == ""

    def test_withhold_exit_three(self, capsys, offline):
        code, out, _ = run_cli(capsys, "score", "http://en-bare.test", *offline)
        assert code == 3
        assert "0.9790" in out
        assert "withhold" in out

    def test_mimic_scores_one(self, capsys, offline):
        code, out, _ = run_cli(capsys, "score", "http://nbcnews.com.co", *offline)
        assert code == 3
        assert "1.0000" in out
        assert "nbcnews.com" in out
        assert "mimicry-screen" in out

    def test_unreachable_exit_four(self, capsys, offline):
        code, _, err = run_cli(capsys, "score", "http://no-such-fixture.test", *offline)
        assert code == 4
        assert "error" in err

    def test_threshold_changes_verdict(self, capsys, offline):
        code, _, _ = run_cli(capsys, "score", "http://en-bare.test",
                             "--threshold", "0.99", *offline)
        assert code == 0

    def test_json_mode_single_document(self, capsys, offline):
        code, out, _ = run_cli(capsys, "score", "https://en-full.test",
                               "--output-mode", "json", *offline)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "share"
        assert payload["features"]["padlock"] == 1

    def test_batch(self, capsys, offline, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text(
            "https://en-full.test\nhttp://nbcnews.com.co\n# comment\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "score", "--batch", str(urls),
                               "--output-mode", "json", *offline)
        assert code == 3          # one withhold in the batch
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["url"] == "https://en-full.test"
        assert payload[1]["path"] == "mimicry-screen"

    def test_batch_file_with_byte_order_mark(self, capsys, offline, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text("\ufeffhttps://en-full.test\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "score", "--batch", str(urls),
                                 "--output-mode", "json", *offline)
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["url"] == "https://en-full.test"

    def test_empty_batch_exit_four(self, capsys, offline, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text("# nothing\n\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "score", "--batch", str(urls), *offline)
        assert (code, out) == (4, "")
        assert f"no URLs in {urls}" in err

    @pytest.mark.parametrize("mode", ["table", "json"])
    def test_known_outlet_carries_the_exact_hit_note(self, capsys, tmp_path, mode):
        site = tmp_path / "nbcnews.com"
        site.mkdir()
        (site / "index.html").write_text("<p>hi</p>", encoding="utf-8")
        code, out, err = run_cli(capsys, "score", "https://nbcnews.com", "--output-mode", mode,
                                 "--offline-root", str(tmp_path))
        note = "recognized established domain nbcnews.com"
        assert (code, err) == (3, "")
        if mode == "json":
            payload = json.loads(out)
            assert (payload["path"], payload["note"]) == ("logit-model", note)
        else:
            assert out.endswith("  [logit-model]  padlock=1 contact=0 telephone=0 about=0 terms=0"
                                f"  ({note})\n")

    def test_malformed_link_does_not_stop_scoring(self, capsys, offline):
        # the page's one unparseable link is skipped; the rest still set every bit
        code, out, err = run_cli(capsys, "score", "https://malformed-link.test",
                                 "--output-mode", "json", *offline)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["verdict"] == "share"
        assert set(payload["features"].values()) == {1}

    def test_no_sockets_opened_offline(self, capsys, offline):
        reset_fetch_counters()
        run_cli(capsys, "score", "https://en-full.test", *offline)
        assert get_fetch_counters().http_requests == 0


class TestExtractCommand:
    def test_table_output(self, capsys, offline):
        code, out, _ = run_cli(capsys, "extract", "http://en-bare.test", *offline)
        assert code == 0
        assert out.strip() == "padlock=0 contact=0 telephone=0 about=0 terms=0"

    def test_full_fixture(self, capsys, offline):
        _, out, _ = run_cli(capsys, "extract", "https://en-full.test", *offline)
        assert out.strip() == "padlock=1 contact=1 telephone=1 about=1 terms=1"

    def test_json_mode(self, capsys, offline):
        _, out, _ = run_cli(capsys, "extract", "https://en-full.test",
                            "--output-mode", "json", *offline)
        payload = json.loads(out)
        assert set(payload) == {"padlock", "contact", "telephone", "about", "terms"}
        assert all(v in (0, 1) for v in payload.values())

    def test_fetch_error_exit_four(self, capsys, offline):
        code, _, err = run_cli(capsys, "extract", "http://missing.test", *offline)
        assert code == 4
        assert "missing.test" in err


class TestScreenCommand:
    def test_mimic(self, capsys):
        code, out, _ = run_cli(capsys, "screen", "nbcnews.com.co")
        assert code == 3
        assert "MIMIC of nbcnews.com" in out
        assert "embedded-domain" in out

    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, "screen", "nbcnews.com")
        assert code == 0
        assert "EXACT" in out

    def test_clean(self, capsys):
        code, out, _ = run_cli(capsys, "screen", "quiet-herald.net")
        assert code == 0
        assert out.strip() == "CLEAN"

    def test_unparseable_exit_four(self, capsys):
        code, _, err = run_cli(capsys, "screen", "not a url ::")
        assert code == 4
        assert "error" in err

    def test_json_mode(self, capsys):
        _, out, _ = run_cli(capsys, "screen", "nbcnews.com.co", "--output-mode", "json")
        payload = json.loads(out)
        assert payload["outcome"] == "Mimic"
        assert payload["reason"] == "embedded-domain"

    def test_custom_database(self, capsys, tmp_path):
        listing = tmp_path / "db.txt"
        listing.write_text("quiet-herald.net\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "screen", "quiet-herald.net",
                               "--known-domains", str(listing))
        assert code == 0
        assert "EXACT" in out


class TestTrainCommand:
    def test_reports_and_writes_model(self, capsys, dataset_csv, tmp_path):
        out_path = tmp_path / "fit.json"
        code, out, _ = run_cli(capsys, "train", str(dataset_csv),
                               "--model-out", str(out_path))
        assert code == 0
        assert "McFadden R-squared" in out
        assert "Akaike criterion" in out
        assert "intercept" in out
        assert out_path.is_file()
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(document["coefficients"]) == {"padlock", "contact",
                                                 "telephone", "terms"}

    def test_explicit_feature_list(self, capsys, dataset_csv, tmp_path):
        code, out, _ = run_cli(capsys, "train", str(dataset_csv),
                               "--features", "padlock,about",
                               "--model-out", str(tmp_path / "m.json"))
        assert code == 0
        assert "padlock" in out and "about" in out

    def test_json_mode(self, capsys, dataset_csv, tmp_path):
        code, out, _ = run_cli(capsys, "train", str(dataset_csv),
                               "--output-mode", "json",
                               "--model-out", str(tmp_path / "m.json"))
        assert code == 0
        payload = json.loads(out)
        assert "diagnostics" in payload
        assert payload["diagnostics"]["k"] == 5

    def test_report_json_flag(self, capsys, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "train", str(dataset_csv),
                "--model-out", str(tmp_path / "m.json"),
                "--report-json", str(report_path))
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert "diagnostics" in payload

    def test_separated_data_exit_five(self, capsys, tmp_path):
        lines = ["label,padlock,contact,telephone,about,terms"]
        for i in range(40):
            bit = i % 2
            lines.append(f"{bit},{bit},0,1,0,1")
        path = tmp_path / "sep.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", str(path), "--features", "padlock",
                               "--model-out", str(tmp_path / "m.json"))
        assert code == 5
        assert "separation" in err.casefold()

    def test_oversized_field_exit_four(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("label,padlock,contact,telephone,about,terms,url\n"
                        f"1,0,0,0,0,0,{'a' * 200_000}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", str(path), "--model-out", str(tmp_path / "m.json"))
        assert code == 4
        assert f"{path}:2:" in err

    def test_missing_dataset_exit_four(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "train", str(tmp_path / "nope.csv"),
                             "--model-out", str(tmp_path / "m.json"))
        assert code == 4

    @pytest.mark.parametrize("mode", ["table", "json"])
    def test_without_model_out_writes_no_file(self, capsys, dataset_csv, tmp_path,
                                              monkeypatch, mode):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, "train", str(dataset_csv), "--output-mode", mode)
        assert (code, err) == (0, "")
        assert list(work.iterdir()) == []
        if mode == "json":
            assert json.loads(out)["model_path"] is None
        else:
            assert "McFadden R-squared" in out
            assert "model written" not in out


class TestAnalyzeCommand:
    def test_table_output(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "analyze", str(dataset_csv))
        assert code == 0
        assert "Latent correlation matrix" in out
        assert "Chi-square independence tests" in out
        assert out.count("label-") == 5

    def test_json_mode(self, capsys, dataset_csv):
        code, out, _ = run_cli(capsys, "analyze", str(dataset_csv),
                               "--output-mode", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["variables"]) == 6
        assert len(payload["tetrachoric"]) == 6
        assert len(payload["chi_square"]) == 5

    def test_constant_column_exit_five(self, capsys, tmp_path):
        lines = ["label,padlock,contact,telephone,about,terms"]
        rng = np.random.default_rng(3)
        for _ in range(50):
            bits = rng.integers(0, 2, 5)
            lines.append(f"{bits[0]},1,{bits[1]},{bits[2]},{bits[3]},{bits[4]}")
        path = tmp_path / "const.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 5
        assert "padlock" in err


def test_python_dash_m_runs_the_cli(dataset_csv):
    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "sourcescope", "analyze", str(dataset_csv),
                           "--output-mode", "json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["chi_square"]) == 5


@pytest.mark.parametrize("mode, expected", [
    ("table", ["error: http://no-such-fixture.test: no offline fixture under {sites} "
               "(http://no-such-fixture.test)"]),
    ("json", []),
])
def test_batch_failure_reported_once(fixture_sites, tmp_path, mode, expected):
    # a fresh interpreter, so that nothing captures logging's last-resort handler
    urls = tmp_path / "urls.txt"
    urls.write_text("http://no-such-fixture.test\nhttps://en-full.test\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "sourcescope", "score", "--batch", str(urls),
                           "--offline-root", str(fixture_sites), "--output-mode", mode],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 4
    assert done.stderr.splitlines() == [line.format(sites=fixture_sites) for line in expected]


def test_commands_run_without_numpy(dataset_csv, tmp_path):
    # every module the commands load must come from the standard library or
    # this package; the start-up set is taken first, because site-packages
    # .pth files may import third-party modules before the script runs
    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1]),
           "SOURCESCOPE_OFFLINE": "1"}
    code = ("import sys\n"
            "startup = set(sys.modules)\n"
            "from sourcescope.cli import main\n"
            "codes = [main(['score', 'https://demo-reliable.example']),\n"
            f"         main(['train', {str(dataset_csv)!r}, '--model-out', {str(tmp_path / 'm.json')!r}]),\n"
            f"         main(['analyze', {str(dataset_csv)!r}])]\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - startup}\n"
            "print(codes, sorted(loaded - sys.stdlib_module_names - {'sourcescope'}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_offline_batch_loads_no_thread_pool(tmp_path):
    # an offline batch is scored in the calling thread, so it never loads
    # concurrent.futures; the start-up set is taken first, as above
    batch = tmp_path / "urls.txt"
    batch.write_text("https://demo-reliable.example\nhttps://demo-unreliable.example\n",
                     encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1]),
           "SOURCESCOPE_OFFLINE": "1"}
    code = ("import sys\n"
            "startup = set(sys.modules)\n"
            "from sourcescope.cli import main\n"
            f"code = main(['score', '--batch', {str(batch)!r}])\n"
            "print(code, sorted({'concurrent.futures'} & (set(sys.modules) - startup)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "3 []"


def test_pages_are_read_without_html_parser():
    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1]),
           "SOURCESCOPE_OFFLINE": "1"}
    code = ("import sys\n"
            "from sourcescope.cli import main\n"
            "codes = [main(['score', 'https://demo-reliable.example']),\n"
            "         main(['extract', 'https://demo-unreliable.example'])]\n"
            "print(codes, sorted({'html.parser', '_markupbase'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


class TestConfigHandling:
    def test_custom_model_file(self, capsys, offline, tmp_path):
        document = {"version": "1", "intercept": 0.0,
                    "coefficients": {"padlock": 0.0}, "metadata": None}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, _ = run_cli(capsys, "score", "http://en-bare.test",
                               "--model", str(path), *offline)
        assert code == 0           # constant 0.5 <= default threshold
        assert "0.5000" in out

    def test_missing_model_file_exit_four(self, capsys, offline):
        code, _, err = run_cli(capsys, "score", "http://en-bare.test",
                               "--model", "/nonexistent/model.json", *offline)
        assert code == 4
        assert "/nonexistent/model.json" in err

    @pytest.mark.parametrize("command", ["score", "extract"])
    def test_manifest_not_valid_json_exit_four(self, capsys, tmp_path, command):
        site = tmp_path / "broken.test"
        site.mkdir()
        (site / "index.html").write_text("<p>hi</p>", encoding="utf-8")
        (site / "manifest.json").write_text('{"final_scheme_secure": tru', encoding="utf-8")
        code, _, err = run_cli(capsys, command, "http://broken.test",
                               "--offline-root", str(tmp_path))
        assert code == 4
        assert f"{site / 'manifest.json'}: not valid JSON" in err

    @pytest.mark.parametrize("manifest,refusal", [
        ("[]", "not a JSON object"),
        ('{"final_url": 5}', "final_url is not a string"),
        ('{"final_scheme_secure": "no"}', "final_scheme_secure is not true or false")])
    @pytest.mark.parametrize("command", ["score", "extract"])
    def test_manifest_field_types_exit_four(self, capsys, tmp_path, command, manifest, refusal):
        site = tmp_path / "broken.test"
        site.mkdir()
        (site / "index.html").write_text("<p>hi</p>", encoding="utf-8")
        (site / "manifest.json").write_text(manifest, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "http://broken.test",
                                 "--offline-root", str(tmp_path))
        assert (code, out) == (4, "")
        assert err == f"error: {site / 'manifest.json'}: {refusal} (http://broken.test)\n"

    @pytest.mark.parametrize("flag", ["--known-domains", "--lexicon", "--model", "--batch",
                                      "manifest"])
    def test_input_not_utf8_exit_four_naming_the_file(self, capsys, offline, tmp_path, flag):
        if flag == "manifest":
            site = tmp_path / "c.test"
            site.mkdir()
            (site / "index.html").write_text("<p>hi</p>", encoding="utf-8")
            path = site / "manifest.json"
            argv = ["http://c.test", "--offline-root", str(tmp_path)]
        else:
            path = tmp_path / "input"
            argv = [*(["--batch"] if flag == "--batch" else ["https://en-full.test", flag]),
                    str(path), *offline]
        path.write_bytes(b"# caf\xe9\n")
        code, out, err = run_cli(capsys, "score", *argv)
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {path}: not UTF-8 text (byte 0xe9: invalid continuation byte)")

    @pytest.mark.parametrize("command,flag,content,message", [
        ("score", "--model", {"intercept": 1, "coefficients": {"padlock": 1, "bogus": 2}},
         "unknown feature 'bogus'"),
        ("score", "--model", {"intercept": 1, "coefficients": {}},
         "model needs at least one feature coefficient"),
        ("score", "--model", {"intercept": "x", "coefficients": {"padlock": 1}},
         "intercept must be a number"),
        ("extract", "--lexicon", {"languages": []}, "lexicon declares no languages"),
        ("extract", "--lexicon", {"contact": "ab"},
         "malformed lexicon document (contact is not an object)"),
        ("screen", "--known-domains", "localhost\n",
         "known-domain entry 'localhost' is not a registrable domain"),
        ("screen", "--known-domains", "a" * 64 + ".com\n", "hostname longer than RFC 1035 allows"),
    ])
    def test_content_refusal_exit_four_naming_the_file(self, capsys, offline, tmp_path, command,
                                                       flag, content, message):
        if flag == "--lexicon":
            builtin = json.loads((sourcescope.files.DATA / "lexicon.json").read_text("utf-8"))
            content = {**builtin, **content}
        path = tmp_path / "input"
        path.write_text(content if isinstance(content, str) else json.dumps(content), "utf-8")
        argv = ["example.com"] if command == "screen" else ["https://en-full.test", *offline]
        code, out, err = run_cli(capsys, command, *argv, flag, str(path))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command,secure,exit_code", [
        ("score", False, 3), ("score", True, 0), ("extract", False, 0)])
    @pytest.mark.parametrize("mode", ["json", "table"])
    def test_unreadable_listed_pages_are_reported(self, capsys, tmp_path, command, secure,
                                                  exit_code, mode):
        skipped = write_partial_site(tmp_path, secure)
        code, out, err = run_cli(capsys, command, "http://partial.test", "--output-mode", mode,
                                 "--offline-root", str(tmp_path))
        assert (code, err) == (exit_code, "")
        if mode == "json":
            payload = json.loads(out)
            assert payload["skipped_pages"] == [{"url": url, "reason": reason}
                                                for url, reason in skipped]
        else:
            assert out.endswith("  (skipped " + ", ".join(f"{url}: {reason}"
                                                          for url, reason in skipped) + ")\n")

    def test_missing_offline_root_exit_four(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "score", "http://en-full.test",
                                 "--offline-root", str(tmp_path / "missing"))
        assert (code, out) == (4, "")
        assert err == f"error: offline root not found: {tmp_path / 'missing'}\n"

    def test_score_without_url_or_batch_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["score"])
        assert exit_info.value.code == 2
        assert "one of the arguments url --batch is required" in capsys.readouterr().err

    def test_empty_url_exit_four(self, capsys):
        assert run_cli(capsys, "score", "") == (4, "", "error: empty URL\n")

    def test_empty_batch_path_exit_four(self, capsys):
        code, out, err = run_cli(capsys, "score", "--batch", "")
        assert (code, out) == (4, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("timeout", ["inf", "1e300", "nan"])
    def test_timeout_past_the_socket_layer_exit_four(self, capsys, timeout):
        code, out, err = run_cli(capsys, "score", "http://127.0.0.1:9/", "--timeout", timeout)
        assert (code, out) == (4, "")
        assert err.startswith("error: FetchPolicy.timeout must be finite")
        assert "Traceback" not in err

    def test_score_with_url_and_batch_is_a_usage_error(self, capsys, offline, tmp_path):
        batch = tmp_path / "urls.txt"
        batch.write_text("https://en-full.test\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["score", "https://en-bare.test", "--batch", str(batch), *offline])
        assert exit_info.value.code == 2
        assert "argument --batch: not allowed with argument url" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["train", "--features", "padlock,padlock"],
         "feature list 'padlock,padlock' must name at least one feature, each once"),
        (["train", "--features", " "], "feature list ' ' must name at least one feature, each once"),
        (["train", "--features", "bogus"], "unknown feature 'bogus'"),
        (["train", "--cutoff", "2"], "cutoff must lie in (0, 1), got 2.0"),
        (["train", "--cutoff", "0"], "cutoff must lie in (0, 1), got 0.0"),
        (["analyze", "--alpha", "0"], "alpha must lie in (0, 1), got 0.0"),
        (["analyze", "--alpha", "1"], "alpha must lie in (0, 1), got 1.0"),
        (["analyze", "--alpha", "nan"], "alpha must lie in (0, 1), got nan"),
    ])
    def test_flag_value_refusal_exit_four(self, capsys, dataset_csv, tmp_path, argv, message):
        command, *flags = argv
        code, out, err = run_cli(capsys, command, str(dataset_csv), *flags,
                                 *(["--model-out", str(tmp_path / "m.json")] if command == "train" else []))
        assert (code, out, err) == (4, "", f"error: {message}\n")
        assert not (tmp_path / "m.json").exists()

    def test_feature_list_is_refused_before_the_dataset_is_read(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "train", str(tmp_path / "nope.csv"),
                                 "--features", "padlock,padlock",
                                 "--model-out", str(tmp_path / "m.json"))
        assert (code, out) == (4, "")
        assert err == ("error: feature list 'padlock,padlock' must name at least one feature, "
                       "each once\n")

    @pytest.mark.parametrize("rows", [None, [(y, y) for y in (0, 1) for _ in range(20)]],
                             ids=["missing", "separated"])
    def test_cutoff_is_refused_before_the_dataset_is_read(self, capsys, tmp_path, rows):
        # neither the missing file (exit 4) nor the separated fit (exit 5) is reached
        path = tmp_path / "data.csv"
        if rows is not None:
            path.write_text("label,padlock,contact,telephone,about,terms\n" + "".join(
                f"{y},{x},0,1,0,1\n" for y, x in rows), encoding="utf-8")
        code, out, err = run_cli(capsys, "train", str(path), "--features", "padlock",
                                 "--cutoff", "2")
        assert (code, out, err) == (4, "", "error: cutoff must lie in (0, 1), got 2.0\n")

    def test_url_without_a_site_directory_exit_four(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "extract", "http://-bad.test",
                                 "--offline-root", str(tmp_path))
        assert (code, out) == (4, "")
        assert err == f"error: no offline fixture under {tmp_path} (http://-bad.test)\n"

    def test_invalid_threshold_exit_four(self, capsys, offline):
        code, _, _ = run_cli(capsys, "score", "http://en-bare.test",
                             "--threshold", "1.5", *offline)
        assert code == 4

    def test_env_var_offline(self, capsys, monkeypatch):
        monkeypatch.setenv("SOURCESCOPE_OFFLINE", "1")
        reset_fetch_counters()
        code, out, _ = run_cli(capsys, "score", "https://demo-reliable.example")
        assert code == 0
        assert get_fetch_counters().http_requests == 0
        assert "share" in out

    def test_offline_reports_are_byte_identical(self, capsys, offline):
        _, first, _ = run_cli(capsys, "score", "https://en-full.test",
                              "--output-mode", "json", *offline)
        _, second, _ = run_cli(capsys, "score", "https://en-full.test",
                               "--output-mode", "json", *offline)
        assert first == second

    def test_report_json_on_score(self, capsys, offline, tmp_path):
        report_path = tmp_path / "score.json"
        run_cli(capsys, "score", "https://en-full.test",
                "--report-json", str(report_path), *offline)
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["verdict"] == "share"


FLAGS = {
    "score": {"--batch", "--model", "--threshold", "--output-mode", "--report-json",
              "--lexicon", "--offline-root", "--timeout", "--known-domains"},
    "extract": {"--output-mode", "--report-json", "--lexicon", "--offline-root", "--timeout"},
    "screen": {"--output-mode", "--report-json", "--known-domains"},
    "train": {"--output-mode", "--report-json",
              "--features", "--model-out", "--slope-convention", "--cutoff"},
    "analyze": {"--output-mode", "--report-json", "--alpha", "--yates"},
}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        taken = {name: {flag for action in parser._actions for flag in action.option_strings}
                 - {"-h", "--help"}
                 for name, parser in commands.choices.items()}
        assert taken == FLAGS
        assert sum(map(len, taken.values())) == 27

    def test_flag_of_another_command_is_a_usage_error(self, capsys, dataset_csv):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", str(dataset_csv), "--model", "/nonexistent/model.json"])
        assert exit_info.value.code == 2
        assert "--model" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("this command must not build this input")


class TestLoaders:
    def test_dataset_commands_build_no_scoring_inputs(self, capsys, monkeypatch,
                                                      dataset_csv, tmp_path):
        for name in ("load_lexicon", "load_known_domains", "load_model_file"):
            monkeypatch.setattr(cli, name, _refuse)
        code, _, _ = run_cli(capsys, "train", str(dataset_csv),
                             "--model-out", str(tmp_path / "m.json"))
        assert code == 0
        code, _, _ = run_cli(capsys, "analyze", str(dataset_csv))
        assert code == 0

    def test_screen_builds_no_lexicon_or_model(self, capsys, monkeypatch):
        for name in ("load_lexicon", "load_model_file"):
            monkeypatch.setattr(cli, name, _refuse)
        code, out, _ = run_cli(capsys, "screen", "nbcnews.com.co")
        assert code == 3
        assert "MIMIC of nbcnews.com" in out


def _package_errors(cls=sourcescope.errors.SourceScopeError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _package_errors(sub)


_ESTIMATION = {"SingularDesignError", "SeparationError", "ConvergenceError", "ZeroMarginError",
               "SingleClassDataError", "DomainError", "UnknownVariableError"}
_CONCRETE_ERRORS = sorted((cls for cls in _package_errors()
                           if cls is not sourcescope.errors.EstimationError),
                          key=lambda cls: cls.__name__)


def test_estimation_classes_are_the_ones_named():
    assert _ESTIMATION <= {cls.__name__ for cls in _CONCRETE_ERRORS}


@pytest.mark.parametrize("error", _CONCRETE_ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, error):
    args = ("http://x.test", "boom") if issubclass(error, sourcescope.errors.FetchError) else ("boom",)

    def fail(_args):
        raise error(*args)

    monkeypatch.setattr(cli, "_cmd_screen", fail)
    code, out, err = run_cli(capsys, "screen", "x.test")
    assert code == (5 if error.__name__ in _ESTIMATION else 4)
    assert out == ""
    assert err.startswith("error: boom")

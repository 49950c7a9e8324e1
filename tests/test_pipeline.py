"""End-to-end scoring flow, CSV ingestion, training and analysis runs."""

import csv
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sourcescope.errors import (
    DatasetError,
    DuplicateHeaderError,
    EmptyFileError,
    MissingColumnError,
    NetworkUnreachableError,
    NonBinaryCellError,
    NotUtf8Error,
    ZeroMarginError,
)
from sourcescope.features import (
    FEATURE_NAMES,
    FetchPolicy,
    get_fetch_counters,
    reset_fetch_counters,
)
from sourcescope.model import MODEL_II, load_model_file
from sourcescope.pipeline import (
    ScoreRequest,
    analyze,
    load_dataset,
    resolve_features,
    score_many,
    score_url,
    train,
)
from sourcescope.screener import KnownDomainDB, default_known_domains
from tests.synth import balanced_dataset, write_csv

DB = default_known_domains()


def policy_for(fixture_sites):
    return FetchPolicy(offline_root=fixture_sites)


class TestScoreUrl:
    def test_mimic_short_circuits_without_fetching(self, fixture_sites):
        reset_fetch_counters()
        request = ScoreRequest("http://nbcnews.com.co", threshold=0.9,
                               policy=policy_for(fixture_sites))
        report = score_url(request, MODEL_II, DB)
        assert report.path == "mimicry-screen"
        assert report.probability_fake == 1.0
        assert report.verdict == "withhold"
        assert report.mimic_target == "nbcnews.com"
        assert report.features is None
        counters = get_fetch_counters()
        assert counters.snapshots == 0
        assert counters.http_requests == 0

    def test_mimic_withholds_even_at_threshold_one(self, fixture_sites):
        request = ScoreRequest("http://nbcnews.com.co", threshold=1.0,
                               policy=policy_for(fixture_sites))
        assert score_url(request, MODEL_II, DB).verdict == "withhold"

    def test_bare_site_scores_high(self, fixture_sites):
        request = ScoreRequest("http://en-bare.test", threshold=0.5,
                               policy=policy_for(fixture_sites))
        report = score_url(request, MODEL_II, DB)
        assert report.path == "logit-model"
        assert report.probability_fake == pytest.approx(0.9790, abs=1e-3)
        assert report.verdict == "withhold"
        assert report.features is not None

    def test_full_site_scores_low(self, fixture_sites):
        request = ScoreRequest("https://en-full.test", threshold=0.5,
                               policy=policy_for(fixture_sites))
        report = score_url(request, MODEL_II, DB)
        assert report.probability_fake == pytest.approx(0.0564, abs=1e-3)
        assert report.verdict == "share"

    def test_threshold_one_shares_model_path(self, fixture_sites):
        request = ScoreRequest("http://en-bare.test", threshold=1.0,
                               policy=policy_for(fixture_sites))
        assert score_url(request, MODEL_II, DB).verdict == "share"

    def test_verdict_monotone_in_threshold(self, fixture_sites):
        shared = []
        for threshold in np.linspace(0.0, 1.0, 11):
            request = ScoreRequest("http://es-sections.test", threshold=float(threshold),
                                   policy=policy_for(fixture_sites))
            report = score_url(request, MODEL_II, DB)
            shared.append(report.verdict == "share")
        # once shared at T, shared at every larger T
        assert shared == sorted(shared)

    def test_exact_db_hit_annotated_not_screened(self, fixture_sites, tmp_path):
        site = tmp_path / "nbcnews.com"
        site.mkdir()
        (site / "index.html").write_text("<html><body><p>hi</p></body></html>",
                                         encoding="utf-8")
        request = ScoreRequest("https://nbcnews.com", threshold=0.5,
                               policy=FetchPolicy(offline_root=tmp_path))
        report = score_url(request, MODEL_II, DB)
        assert report.path == "logit-model"
        assert "recognized established domain" in (report.note or "")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ScoreRequest("http://x.test", threshold=1.5)

    def test_batch_keeps_order_and_captures_errors(self, fixture_sites):
        requests = [
            ScoreRequest("https://en-full.test", policy=policy_for(fixture_sites)),
            ScoreRequest("http://no-fixture-here.test", policy=policy_for(fixture_sites)),
            ScoreRequest("http://nbcnews.com.co", policy=policy_for(fixture_sites)),
        ]
        outcomes = score_many(requests, MODEL_II, DB)
        assert [r.url for r, _, _ in outcomes] == [r.url for r in requests]
        assert outcomes[0][1].verdict == "share"
        assert outcomes[1][2] is not None          # fixture missing -> error
        assert outcomes[2][1].path == "mimicry-screen"

    def test_offline_batch_returns_the_one_missing_fixture_in_place(self, fixture_sites):
        urls = ["http://en-full.test", "http://de-full.test", "http://missing.test",
                "http://en-bare.test", "http://fr-full.test"]
        requests = [ScoreRequest(url, policy=policy_for(fixture_sites)) for url in urls]
        outcomes = score_many(requests, MODEL_II, DB)
        assert [request for request, _, _ in outcomes] == requests
        failed = [(request.url, exc) for request, _, exc in outcomes if exc is not None]
        assert [url for url, _ in failed] == ["http://missing.test"]
        assert isinstance(failed[0][1], NetworkUnreachableError)
        assert "no offline fixture" in str(failed[0][1])
        assert [report for _, report, _ in outcomes] == [
            None if url == "http://missing.test" else score_url(request, MODEL_II, DB)
            for url, request in zip(urls, requests)]

    def test_offline_batch_starts_no_thread(self, fixture_sites, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"offline batch started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.test_batch_keeps_order_and_captures_errors(fixture_sites)


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms\n"
            "1,0,0,0,0,0\n0,1,1,1,1,1\n1,0,1,0,1,0\n", encoding="utf-8")
        data = load_dataset(path)
        assert len(data) == 3
        assert data.class_counts() == (2, 1)
        assert data.cells(FEATURE_NAMES) == [
            ((1, 1, 1, 1, 1), 0, 1), ((0, 0, 0, 0, 0), 1, 1), ((0, 1, 0, 1, 0), 1, 1)]

    def test_optional_url_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms,url\n"
            "1,0,0,0,0,0,http://a.test\n0,1,0,0,0,1,\n", encoding="utf-8")
        data = load_dataset(path)
        assert data.cells(FEATURE_NAMES) == [((1, 0, 0, 0, 1), 0, 1), ((0, 0, 0, 0, 0), 1, 1)]

    def test_bad_cell_after_good_rows_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms\n"
            "1,0,0,0,0,0\n0,1,1,1,1,1\n1,0,0,x,0,0\n0,0,0,0,0,0\n", encoding="utf-8")
        with pytest.raises(NonBinaryCellError, match=r":4: column 'telephone'"):
            load_dataset(path)

    def test_error_names_the_physical_line_after_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms\n"
            '"1\n",0,0,0,0,0\n1,0,0,x,0,0\n', encoding="utf-8")
        with pytest.raises(NonBinaryCellError, match=r":4: column 'telephone'"):
            load_dataset(path)

    def test_oversized_field_is_a_dataset_error(self, tmp_path):
        # the csv module refuses a field over its limit (131,072 characters by default)
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms,url\n"
            "1,0,0,0,0,0,http://a.test\n"
            f"1,0,0,0,0,0,http://{'a' * 200_000}.test\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"data\.csv:3: field larger than field limit"):
            load_dataset(path)

    def test_line_past_any_row_is_refused_before_it_is_read_whole(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms,url\n"
            "1,0,0,0,0,0,http://a.test\n"
            f"1,0,0,0,0,0,http://{'a' * 20_000_000}.test\n", encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(DatasetError, match=r"data\.csv:3: line longer than"):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20, f"peak {peak} bytes"

    def test_field_limit_raised_to_maxsize_still_reads(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms,url\n"
            '1,0,0,0,0,0,"http://a.test/?q=1,2"\n', encoding="utf-8")
        old = csv.field_size_limit(sys.maxsize)
        try:
            assert sum(load_dataset(path).counts) == 1
        finally:
            csv.field_size_limit(old)

    def test_non_binary_cell_names_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "label,padlock,contact,telephone,about,terms\n"
            "1,0,2,0,0,0\n", encoding="utf-8")
        with pytest.raises(NonBinaryCellError, match="contact"):
            load_dataset(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,padlock,contact,telephone,about\n1,0,0,0,0\n",
                        encoding="utf-8")
        with pytest.raises(MissingColumnError, match="terms"):
            load_dataset(path)

    @pytest.mark.parametrize("header", ["padlock,label,contact,telephone,about,terms",
                                        "label,padlock,contact,telephone,about,terms,extra"])
    def test_header_must_be_exact(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n1,0,0,0,0,0\n", encoding="utf-8")
        expected = (f"{path}: header must be exactly label,padlock,contact,telephone,about,terms"
                    f"[,url]; got {header}")
        with pytest.raises(MissingColumnError, match=f"^{re.escape(expected)}$"):
            load_dataset(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,padlock,padlock,telephone,about,terms\n1,0,0,0,0,0\n",
                        encoding="utf-8")
        with pytest.raises(DuplicateHeaderError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFileError):
            load_dataset(path)

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" export leads with a BOM
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,padlock,contact,telephone,about,terms\r\n"
                         b"1,0,0,0,0,0\r\n0,1,1,1,1,1\r\n")
        assert load_dataset(path).class_counts() == (1, 1)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"label,padlock,contact,telephone,about,terms,url\n"
                         b"1,0,0,0,0,0,http://caf\xe9.test\n")
        with pytest.raises(NotUtf8Error, match=rf"^{re.escape(str(path))}: not UTF-8 .*0xe9"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,padlock,contact,telephone,about,terms\n", encoding="utf-8")
        with pytest.raises(EmptyFileError):
            load_dataset(path)


class TestTrain:
    def test_recovers_coefficients_on_synthetic_data(self, tmp_path):
        # exact class balancing is case-control sampling: it offsets the
        # intercept but leaves the feature coefficients consistent, so the
        # recovery bound applies to the coefficient map
        rng = np.random.default_rng(10)
        csv_path = tmp_path / "train.csv"
        write_csv(csv_path, balanced_dataset(rng, per_class=200))
        result = train(csv_path, features="model2", model_out=tmp_path / "fit.json")
        for name, truth in MODEL_II.coefficients.items():
            assert abs(result.fit.model.coefficients[name] - truth) < 0.8
        assert (tmp_path / "fit.json").is_file()
        rebuilt = load_model_file(tmp_path / "fit.json")
        assert rebuilt.features == ("padlock", "contact", "telephone", "terms")

    def test_single_feature_subset(self, tmp_path):
        rng = np.random.default_rng(8)
        csv_path = tmp_path / "train.csv"
        write_csv(csv_path, balanced_dataset(rng, per_class=100))
        result = train(csv_path, features="padlock")
        assert result.fit.model.features == ("padlock",)
        assert result.diagnostics.k == 2

    def test_unwritable_output_leaves_no_partial_file(self, tmp_path):
        rng = np.random.default_rng(9)
        csv_path = tmp_path / "train.csv"
        write_csv(csv_path, balanced_dataset(rng, per_class=50))
        target = tmp_path / "no-such-dir" / "fit.json"
        with pytest.raises(OSError):
            train(csv_path, features="model2", model_out=target)
        assert not target.parent.exists()

    def test_resolve_features(self):
        assert resolve_features("model1") == ("padlock", "contact", "telephone",
                                              "about", "terms")
        assert resolve_features("model2") == ("padlock", "contact", "telephone", "terms")
        assert resolve_features("padlock,about") == ("padlock", "about")
        assert resolve_features(("terms",)) == ("terms",)

    @pytest.mark.parametrize("spec", ["padlock,padlock", " ", ",", "", ("terms", "terms"), ()])
    def test_resolve_features_refuses_repeated_and_empty_lists(self, spec):
        with pytest.raises(ValueError, match=re.escape(f"feature list {spec!r} must name")):
            resolve_features(spec)


class TestAnalyze:
    def test_report_shape(self, tmp_path):
        rng = np.random.default_rng(12)
        csv_path = tmp_path / "analyze.csv"
        write_csv(csv_path, balanced_dataset(rng, per_class=150))
        report = analyze(csv_path)
        assert report.variables == ("label", "padlock", "contact", "telephone",
                                    "about", "terms")
        assert len(report.chi_square_rows) == 5
        assert [pair for pair, _, _ in report.chi_square_rows] == ["label"] * 5
        for i in range(6):
            assert report.correlations.rho(i, i) == 1.0

    def test_label_feature_association_negative(self, tmp_path):
        # features indicate reliability, so label-feature agreement is negative
        rng = np.random.default_rng(13)
        csv_path = tmp_path / "analyze.csv"
        write_csv(csv_path, balanced_dataset(rng, per_class=200))
        report = analyze(csv_path)
        for j in range(1, 5):
            if j == 4:  # 'about' column is noise in the generator
                continue
            assert report.correlations.rho(0, j) < 0

    def test_boundary_column_flagged(self, tmp_path):
        # label == padlock exactly: the pair estimate pegs at the clamp
        lines = ["label,padlock,contact,telephone,about,terms"]
        rng = np.random.default_rng(14)
        for _ in range(120):
            bit = int(rng.integers(0, 2))
            other = rng.integers(0, 2, 4)
            lines.append(f"{bit},{bit},{other[0]},{other[1]},{other[2]},{other[3]}")
        csv_path = tmp_path / "boundary.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = analyze(csv_path)
        est = report.correlations.estimates[0][1]
        assert est.boundary

    def test_independent_data_has_no_stars(self, tmp_path):
        rng = np.random.default_rng(15)
        n = 10_000
        lines = ["label,padlock,contact,telephone,about,terms"]
        for _ in range(n):
            bits = rng.integers(0, 2, 6)
            lines.append(",".join(map(str, bits)))
        csv_path = tmp_path / "independent.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = analyze(csv_path)
        size = len(report.variables)
        for i in range(size):
            for j in range(i + 1, size):
                assert report.correlations.estimates[i][j].p_value >= 0.0001

    def test_constant_column_names_pair(self, tmp_path):
        lines = ["label,padlock,contact,telephone,about,terms"]
        rng = np.random.default_rng(16)
        for _ in range(60):
            bits = rng.integers(0, 2, 5)
            lines.append(f"{bits[0]},1,{bits[1]},{bits[2]},{bits[3]},{bits[4]}")
        csv_path = tmp_path / "constant.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ZeroMarginError, match="padlock"):
            analyze(csv_path)

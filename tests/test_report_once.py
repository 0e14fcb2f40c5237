"""A report pays once per campaign and once per layer geometry.

* **No layer objects on a warm report.**  Table II and Figure 6 sum a
  cost cached per ``(kind, geometry)`` row over the six networks, and the
  builders record rows, not layer objects; once the geometries are
  cached, a report builds no :class:`~repro.dnn.layers.Layer`.
* **One analysis per campaign.**  Artifacts that read the same campaign
  (Table II and Figure 6 both read ``dnn-scaling``) share one analysis
  of its records per report.
* **No spec parsed back.**  A report takes each point's spec from the
  campaign expansion it already holds, never from the stored record.

None of this is a per-process memo of a report: the caches hold one
layer geometry or one configuration each, so a report in a fresh
process pays the same arithmetic.
"""

from collections import Counter

import pytest

from repro.campaign import analysis as analysis_module
from repro.campaign import get_campaign
from repro.dnn.layers import Layer
from repro.report import generate_paper_results, run_report
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A result cache holding every point of the quick report."""
    root = tmp_path_factory.mktemp("report-once")
    cache = root / "cache"
    generate_paper_results(
        path=root / "cold.md", quick=True, store_dir=root / "cold", cache_dir=cache
    )
    return cache


def _warm_report(tmp_path, cache, label):
    path, _ = generate_paper_results(
        path=tmp_path / f"{label}.md",
        quick=True,
        store_dir=tmp_path / label,
        cache_dir=cache,
    )
    return path.read_text(encoding="utf-8")


def _counting(init, calls):
    def counted(self, *args, **kwargs):
        calls.append(type(self))
        init(self, *args, **kwargs)

    return counted


def test_second_report_constructs_no_layer(tmp_path, warm_cache, monkeypatch):
    first = _warm_report(tmp_path, warm_cache, "first")
    constructed = []
    for kind in (Layer, *Layer.__subclasses__()):
        monkeypatch.setattr(kind, "__init__", _counting(kind.__init__, constructed))
    second = _warm_report(tmp_path, warm_cache, "second")
    assert constructed == []
    assert second == first


def test_each_campaign_is_analysed_once_per_report(tmp_path, warm_cache, monkeypatch):
    analysed = []
    real = analysis_module._analyze_one

    def counting(spec, record, energy):
        analysed.append(record)
        return real(spec, record, energy)

    monkeypatch.setattr(analysis_module, "_analyze_one", counting)
    _warm_report(tmp_path, warm_cache, "report")
    # The records are alive for the whole report, so ids are distinct.
    assert max(Counter(map(id, analysed)).values()) == 1
    ids = Counter(record["point_id"] for record in analysed)
    dnn_points = get_campaign("dnn-scaling").for_quick().expand()
    assert [ids[point.id] for point in dnn_points] == [1] * len(dnn_points)


def test_report_parses_no_stored_spec(tmp_path, warm_cache, monkeypatch):
    parsed = []
    real = ScenarioSpec.from_dict.__func__

    def counting(cls, data):
        parsed.append(data)
        return real(cls, data)

    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting))
    run_report(["fig3b"], quick=True, store_dir=tmp_path / "fig3b", cache_dir=warm_cache)
    assert parsed == []
    _warm_report(tmp_path, warm_cache, "all")
    assert parsed == []

"""The benchmark harness's profile selection and its one results writer."""

import json

import pytest

import benchmarks.common as common


class TestProfileName:
    def test_default_is_bench(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert common.profile_name() == "bench"

    def test_rejects_unknown_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "weird")
        with pytest.raises(ValueError, match="tiny"):
            common.profile_name()
        with pytest.raises(ValueError):
            common.profile()


class TestSaveResults:
    def test_tiny_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "tiny")
        assert common.save_results("serve", {"profile": "tiny"}) is None
        assert list(tmp_path.iterdir()) == []

    def test_bench_writes_one_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "bench")
        path = common.save_results("serve", {"profile": "bench"})
        assert list(tmp_path.iterdir()) == [path] == [tmp_path / "serve.json"]
        assert json.loads(path.read_text()) == {"profile": "bench"}

    @pytest.mark.parametrize("name", ["tiny", "bench"])
    def test_unencodable_payload_fails_and_keeps_the_record(self, monkeypatch, tmp_path, name):
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        monkeypatch.setenv("REPRO_BENCH_PROFILE", name)
        record = tmp_path / "serve.json"
        record.write_text('{"profile": "bench"}')
        with pytest.raises(TypeError):
            common.save_results("serve", {"bad": object()})
        assert record.read_text() == '{"profile": "bench"}'

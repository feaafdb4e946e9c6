"""Tests for ``repro diagnose --cache-dir``: trained state on disk.

The contract is *byte identity*: a diagnosis that loads its trained
state from the cache directory prints exactly what a cold diagnosis
prints and exits with the same code. Reuse shows only in telemetry
(``cache.hits``, no training span) -- never in the report. A damaged
entry is refused, never loaded.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import telemetry
from repro.cli import main
from repro.common.errors import CheckpointError
from repro.engines import TrainedStateDir, create
from repro.workloads.registry import get_bug

FAST = ["--train-runs", "4", "--pruning-runs", "6"]
TRAIN_SPANS = {"engine.train", "diagnose.offline_train"}


def _span_names(profile):
    names = set()
    stack = list(profile.get("spans") or [])
    while stack:
        span = stack.pop()
        names.add(span["name"])
        stack.extend(span.get("children") or [])
    return names


def _run(argv):
    """Run ``repro`` with ``argv`` under a fresh registry; returns the
    (exit code, stdout, stderr) triple, the (cache.hits, cache.misses)
    pair and the set of span names."""
    out, err = io.StringIO(), io.StringIO()
    with telemetry.use_registry(telemetry.Registry()) as reg, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    profile = telemetry.profile_dict(reg)
    counters = profile["counters"]
    hits_misses = (counters.get("cache.hits", 0),
                   counters.get("cache.misses", 0))
    return (rc, out.getvalue(), err.getvalue()), hits_misses, \
        _span_names(profile)


def _request(cache_dir=None, engine=None, faults=None):
    """``diagnose gzip`` argv with the given flags."""
    argv = ["diagnose", "gzip", *FAST]
    for flag, value in (("--cache-dir", cache_dir), ("--engine", engine),
                        ("--faults", faults)):
        if value is not None:
            argv += [flag, value]
    return argv


class TestCacheDir:
    def test_hit_is_byte_identical_and_trains_nothing(self, tmp_path):
        cache = str(tmp_path / "c")
        cold, _, cold_spans = _run(_request())
        miss, miss_counts, miss_spans = _run(_request(cache))
        hit, hit_counts, hit_spans = _run(_request(cache))
        assert miss == hit == cold
        assert cold[0] == 0
        assert miss_counts == (0, 1) and hit_counts == (1, 0)
        assert "diagnose.offline_train" in cold_spans & miss_spans
        assert not hit_spans & TRAIN_SPANS
        assert len(os.listdir(cache)) == 1

    def test_faulted_requests_bypass_cache(self, tmp_path):
        cache = tmp_path / "c"
        _, counts, _ = _run(_request(str(cache), faults="seed=3"))
        assert counts == (0, 0)
        assert not cache.exists()

    def test_engines_never_share_entries(self, tmp_path):
        # The key carries the engine fingerprint, so two engines on the
        # same workload miss independently and hold separate entries --
        # serving NN weights to pset (or vice versa) would be silent
        # corruption.
        cache = str(tmp_path / "c")
        for engine in ("nn", "pset"):
            cold, _, _ = _run(_request(engine=engine))
            miss, miss_counts, _ = _run(_request(cache, engine=engine))
            hit, hit_counts, _ = _run(_request(cache, engine=engine))
            assert (miss_counts, hit_counts) == ((0, 1), (1, 0))
            assert miss == hit == cold
        assert len(os.listdir(cache)) == 2

    def test_ensemble_reuses_member_entries(self, tmp_path):
        # An ensemble looks each member up under the member's own key,
        # so standalone nn and pset runs leave nothing to train.
        cache = str(tmp_path / "c")
        for engine in ("nn", "pset"):
            _run(_request(cache, engine=engine))
        warm, counts, spans = _run(_request(cache,
                                            engine="ensemble:nn+pset"))
        assert counts == (2, 0)
        assert not spans & TRAIN_SPANS
        assert len(os.listdir(cache)) == 2
        cold, _, _ = _run(_request(engine="ensemble:nn+pset"))
        assert warm == cold

    def test_key_is_order_independent(self):
        program = get_bug("gzip")
        nn = create("nn")
        assert (nn.store_key({}, program, 4, 0, {"buggy": False, "n": 2})
                == nn.store_key({}, program, 4, 0, {"n": 2, "buggy": False}))


class TestCacheDirCLI:
    def _cli(self, capsys, *argv):
        capsys.readouterr()
        rc = main(["diagnose", "gzip", *FAST, *argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_hit_in_fresh_process_has_no_train_span(self, tmp_path):
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        cache = str(tmp_path / "c")
        profiles = []
        for name in ("miss", "hit"):
            tele = str(tmp_path / f"{name}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "diagnose", "gzip", *FAST,
                 "--engine", "ensemble:nn+pset", "--cache-dir", cache,
                 "--telemetry", tele],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr[-500:]
            with open(tele, encoding="utf-8") as f:
                profiles.append(json.load(f))
        miss, hit = profiles
        assert TRAIN_SPANS <= _span_names(miss)
        assert not _span_names(hit) & TRAIN_SPANS
        assert (hit["counters"]["cache.hits"],
                hit["counters"]["cache.misses"]) == (2, 0)

    def test_corrupted_entry_exits_2_and_names_file(self, capsys, tmp_path):
        cache = tmp_path / "c"
        cold = self._cli(capsys)
        assert self._cli(capsys, "--cache-dir", str(cache)) == cold
        (entry,) = cache.iterdir()
        # Change one hex digit of the stored checksum: the entry's state
        # is intact, so only the checksum test can refuse it.
        data = bytearray(entry.read_bytes())
        at = data.index(b'"checksum": "') + len(b'"checksum": "')
        data[at] = ord("1") if data[at] == ord("0") else ord("0")
        entry.write_bytes(bytes(data))
        rc, out, err = self._cli(capsys, "--cache-dir", str(cache))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {entry}: ")

    def test_every_bit_flip_is_refused_or_harmless(self, capsys, tmp_path):
        # A flip that leaves the parsed entry equal (say, the 17th digit
        # of a float that reads back as the same double) may load;
        # every other flip must be refused.

        cache = tmp_path / "c"
        self._cli(capsys, "--cache-dir", str(cache))
        (entry,) = cache.iterdir()
        store = TrainedStateDir(str(cache))
        key = json.loads(entry.read_text())["fingerprint"]
        original = store.get(key)
        data = entry.read_bytes()
        loaded = 0
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            entry.write_bytes(bytes(flipped))
            try:
                state = store.get(key)
            except CheckpointError:
                continue
            loaded += 1
            assert state == original, i
        assert loaded < len(data) // 10

    def test_entry_in_the_earlier_layout_is_a_hit(self, capsys, tmp_path):
        # Entries are written as the phase-keyed checkpoint files of
        # earlier builds were, so their cache dirs still hit. The entry
        # here is built by that format's rules, not by the store.
        import hashlib

        cold = self._cli(capsys)
        assert self._cli(capsys, "--cache-dir", str(tmp_path / "c")) == cold
        (written,) = (tmp_path / "c").iterdir()
        body = json.loads(written.read_text())
        key, state = body["fingerprint"], body["phases"]["state"]
        signed = {"kind": "trained-state", "fingerprint": key,
                  "phases": {"state": state}}
        checksum = hashlib.sha256(json.dumps(
            signed, sort_keys=True, separators=(",", ":")).encode(
                "utf-8")).hexdigest()
        earlier = json.dumps(dict(signed, format=1, checksum=checksum),
                             sort_keys=True) + "\n"
        assert written.read_text() == earlier
        cache = tmp_path / "earlier"
        cache.mkdir()
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        (cache / f"{digest}.json").write_text(earlier)
        hit, counts, spans = _run(_request(str(cache)))
        assert counts == (1, 0)
        assert not spans & TRAIN_SPANS
        assert hit == cold

    def test_entry_under_another_key_is_refused(self, capsys, tmp_path):
        # A file whose fingerprint is not the looked-up key (an edited
        # or colliding entry) is refused rather than loaded.
        cache = tmp_path / "c"
        self._cli(capsys, "--cache-dir", str(cache))
        (nn_entry,) = cache.iterdir()
        self._cli(capsys, "--engine", "pset", "--cache-dir", str(cache))
        (pset_entry,) = set(cache.iterdir()) - {nn_entry}
        pset_entry.replace(nn_entry)
        rc, _, err = self._cli(capsys, "--cache-dir", str(cache))
        assert rc == 2
        assert f"{nn_entry}: checkpoint fingerprint does not match" in err

    def test_cache_dir_must_be_a_directory(self, capsys, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        rc, _, err = self._cli(capsys, "--cache-dir", str(path))
        assert rc == 2
        assert "is not a directory" in err

    @pytest.mark.parametrize("command", ["serve", "submit", "status",
                                         "result", "shutdown"])
    def test_daemon_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFitIdentity:
    """Trained state carries the offline fit that produced it: an entry
    written under a key without it (as by a build with another fit
    rule) is never loaded."""

    def test_entry_under_the_key_without_the_fit_is_a_miss(
            self, tmp_path, monkeypatch):
        from repro.engines.base import Predictor
        from repro.engines.nn_engine import NNEngine

        cache = str(tmp_path / "c")
        # The key as it was before it named the fit: the bare engine.
        with monkeypatch.context() as m:
            m.setattr(NNEngine, "fingerprint", Predictor.fingerprint)
            _, old_counts, _ = _run(_request(cache))
        assert old_counts == (0, 1)
        miss, counts, spans = _run(_request(cache))
        assert counts == (0, 1)
        assert "diagnose.offline_train" in spans
        assert len(os.listdir(cache)) == 2
        hit, counts, _ = _run(_request(cache))
        assert counts == (1, 0) and hit == miss

    def test_fit_settings_are_in_the_key(self, monkeypatch):
        from repro.core import offline
        from repro.nn.trainer import TrainConfig

        program = get_bug("gzip")
        base = create("nn").store_key({}, program, 4, 0, None)
        monkeypatch.setattr(offline, "TrainConfig",
                            lambda **kw: TrainConfig(step_size=0.1, **kw))
        assert create("nn").store_key({}, program, 4, 0, None) != base


class TestTrainedStateDir:
    """The ``--cache-dir`` entry file: checksummed, atomically written,
    and refused whenever it cannot be trusted."""

    KEY = '{"program":"gzip","runs":4}'

    def _entry(self, store, key=KEY):
        return pathlib.Path(store._file(key))

    def _rewrite(self, path, **fields):
        """Re-sign the entry at ``path`` with ``fields`` replaced, as a
        writer of another entry kind or key would have."""
        body = json.loads(path.read_text())
        body.update(fields)
        body["checksum"] = TrainedStateDir._checksum(
            {k: body[k] for k in ("kind", "fingerprint", "phases")})
        path.write_text(json.dumps(body, sort_keys=True))

    def test_save_load_round_trip(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        # The entry holds JSON: tuples come back as lists, int keys as
        # strings, and the checksum still holds.
        store[self.KEY] = {"weights": [1.5, 2.5], "pair": (1, 2),
                           "by_tid": {10: "a", 2: "b"}}
        assert store.get(self.KEY) == {"weights": [1.5, 2.5],
                                       "pair": [1, 2],
                                       "by_tid": {"10": "a", "2": "b"}}

    def test_reopened_dir_loads_saved_entry(self, tmp_path):
        TrainedStateDir(str(tmp_path))[self.KEY] = {"p": 1}
        assert TrainedStateDir(str(tmp_path)).get(self.KEY) == {"p": 1}

    def test_missing_dir_misses_without_creating_it(self, tmp_path):
        store = TrainedStateDir(str(tmp_path / "c"))
        assert store.get(self.KEY) is None
        assert not (tmp_path / "c").exists()

    def test_kind_mismatch_refused(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        store[self.KEY] = {"p": 1}
        self._rewrite(self._entry(store), kind="diagnosis")
        with pytest.raises(CheckpointError, match="'diagnosis' snapshot"):
            store.get(self.KEY)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        store[self.KEY] = {"p": 1}
        other = '{"program":"gzip","runs":20}'
        self._entry(store).replace(self._entry(store, other))
        with pytest.raises(CheckpointError, match="fingerprint"):
            store.get(other)

    def test_fingerprint_comparison_is_json_normalised(self, tmp_path):
        # The fingerprint is the canonical-JSON store key: params given
        # as a tuple or as a list name one entry.
        program, nn = get_bug("gzip"), create("nn")
        as_tuple = nn.store_key({}, program, 4, 0, {"seeds": (1, 2)})
        as_list = nn.store_key({}, program, 4, 0, {"seeds": [1, 2]})
        assert as_tuple == as_list
        store = TrainedStateDir(str(tmp_path))
        store[as_tuple] = {"p": 1}
        assert store.get(as_list) == {"p": 1}

    def test_unsupported_format_refused(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        store[self.KEY] = {"p": 1}
        self._rewrite(self._entry(store), format=2)
        with pytest.raises(CheckpointError, match="unsupported"):
            store.get(self.KEY)

    def test_checksum_detects_tampering(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        store[self.KEY] = {"p": [1, 2, 3]}
        path = self._entry(store)
        body = json.loads(path.read_text())
        body["phases"]["state"]["p"] = [1, 2, 4]
        path.write_text(json.dumps(body))
        with pytest.raises(CheckpointError, match="checksum"):
            store.get(self.KEY)

    def test_truncated_file_detected(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        store[self.KEY] = {"p": 1}
        path = self._entry(store)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CheckpointError):
            store.get(self.KEY)

    def test_saves_are_atomic(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        for i in range(5):
            store[self.KEY] = {"i": list(range(i))}
            # no tmp file left, and every intermediate file is whole
            assert os.listdir(tmp_path) == [self._entry(store).name]
            assert store.get(self.KEY) == {"i": list(range(i))}

    def test_concurrent_saves_to_one_path_both_land(self, tmp_path,
                                                    monkeypatch):
        # A second save to the same entry runs between the first save's
        # write and its rename -- two processes filling one cache entry.
        # With a shared tmp name the inner save renames the outer's file
        # away and the outer rename fails (or moves a torn file in).
        store = TrainedStateDir(str(tmp_path))
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(src)
            if len(calls) == 1:
                store[self.KEY] = {"p": "inner"}
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store[self.KEY] = {"p": "outer"}
        assert len(calls) == 2 and calls[0] != calls[1]
        assert store.get(self.KEY) == {"p": "outer"}
        assert os.listdir(tmp_path) == [self._entry(store).name]

    def test_concurrent_processes_saving_one_path(self, tmp_path):
        # More writers than cores, each saving the same entry in a loop:
        # every save must succeed and the file must always load whole.
        script = ("import sys\n"
                  "from repro.engines import TrainedStateDir\n"
                  "store = TrainedStateDir(sys.argv[1])\n"
                  "for i in range(40):\n"
                  "    store['k'] = {'w': sys.argv[2], 'i': i}\n")
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path), str(n)], env=env,
                                  stderr=subprocess.PIPE, text=True)
                 for n in range(2 * (os.cpu_count() or 1) + 2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-500:]
        store = TrainedStateDir(str(tmp_path))
        assert store.get("k")["i"] == 39
        assert os.listdir(tmp_path) == [self._entry(store, "k").name]

    def test_failed_save_removes_its_tmp_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            TrainedStateDir(str(tmp_path))[self.KEY] = {"p": 1}
        assert os.listdir(tmp_path) == []

    def test_telemetry_counters(self, tmp_path):
        store = TrainedStateDir(str(tmp_path))
        with telemetry.use_registry(telemetry.Registry()) as reg:
            assert store.get(self.KEY) is None
            store[self.KEY] = {"p": 1}
            store[self.KEY] = {"p": 2}
            assert store.get(self.KEY) == {"p": 2}
        counters = reg.snapshot()["counters"]
        assert (counters["cache.saves"], counters["cache.hits"],
                counters["cache.misses"]) == (2, 1, 1)

"""End-to-end ``repro bench`` runs: ``--quick --json`` and ``--profile``.

The quick registry takes well under a second, so these run in tier-1;
they check the artifact's shape, never its timings.
"""

import json

from repro.bench.artifact import BENCH_SCHEMA, validate_bench_artifact
from repro.bench.cli import main as bench_main


class TestQuickRunEndToEnd:
    def test_quick_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_smoke.json"
        assert bench_main(["--quick", "--repeats", "2",
                           "--json", str(path)]) == 0
        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate_bench_artifact(document) == []
        assert document["schema"] == BENCH_SCHEMA
        assert document["mode"] == "quick"

        names = [entry["name"] for entry in document["results"]]
        # the acceptance bar: all three processor designs are covered
        designs = {
            entry["metadata"].get("design") for entry in document["results"]
        }
        assert {"us1", "us2", "hybrid"} <= designs
        assert any(name.startswith("cspp.") for name in names)
        assert any(name.startswith("isa.") for name in names)

        # engine records carry the simulated-cycle join
        engine = next(e for e in document["results"]
                      if e["name"].startswith("engine."))
        assert engine["stats"]["cycles"] > 0
        assert engine["rates"]["sim_cycles_per_s"] > 0
        capsys.readouterr()

    def test_profile_writes_pstats_and_collapsed(self, tmp_path, capsys):
        out = tmp_path / "profiles"
        assert bench_main(["--filter", "isa", "--repeats", "1",
                           "--profile", "--profile-dir", str(out)]) == 0
        pstats_files = list(out.glob("*.pstats"))
        collapsed_files = list(out.glob("*.collapsed.txt"))
        assert pstats_files and collapsed_files
        text = collapsed_files[0].read_text(encoding="utf-8")
        # flamegraph folded format: "frame[;frame] <count>"
        for line in text.strip().splitlines():
            frames, count = line.rsplit(" ", 1)
            assert frames and int(count) >= 1
        capsys.readouterr()

"""Smoke test of tools/digests.py: it runs, and --compare reports what
differs.  No digest value is pinned; outputs change on purpose."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_write_and_compare(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "a.json"
    assert tool.main(["--out", str(out)]) == 0
    digests = json.loads(out.read_text())
    assert "tpt_classify/record_views" in digests and "cli/eval.csv" in digests
    assert "tpt_classify/interleaved_groups" in digests
    assert "tpt_classify/prompt_after_image_encoder" in digests
    assert "encode_images/after_pretraining_batches" in digests
    assert "cli/none.csv" in digests  # the unshifted dataset path
    assert {"generate", "apply_shift/style", "generate_tasks"} <= digests.keys()
    assert all(len(v) == 64 for v in digests.values())
    assert tool.main(["--compare", str(out), str(out)]) == 0

    altered = tmp_path / "b.json"
    altered.write_text(json.dumps({**digests, "gradcheck_report": "0" * 64}))
    capsys.readouterr()
    assert tool.main(["--compare", str(out), str(altered)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "differs: gradcheck_report"

"""The analyzer CLI over the whole example corpus, byte for byte.

``data/analysis_rewrite_golden.json`` is the output of::

    python -m repro.compiler.analyze examples/legacy/*.c --rewrite --json

run from the repository root. Diagnostics, certificates and rewrite
decisions of every file must not move; regenerate the golden only in a
change that means to change them, and say so.
"""

from pathlib import Path

from repro.compiler.analyze import main

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "data" \
    / "analysis_rewrite_golden.json"


def test_corpus_rewrite_report_matches_golden(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    files = sorted(p.relative_to(REPO).as_posix()
                   for p in (REPO / "examples" / "legacy").glob("*.c"))
    # the corpus holds seeded racy and out-of-bounds programs: exit 1
    assert main(files + ["--rewrite", "--json"]) == 1
    assert capsys.readouterr().out == GOLDEN.read_text()

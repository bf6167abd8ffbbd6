"""Docs stay true: relative links resolve, every ``python`` block in
docs/api.md and docs/analysis.md executes, and nothing quotes the
retired pre-ledger benchmark surface or the removed sharding options.

These snippets are what users paste first; executing them here (and in
CI's docs job) keeps the documented surface from drifting away from
the real one.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Every markdown file whose links and headings we guarantee.
DOC_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "docs" / "api.md",
    REPO / "docs" / "scenarios.md",
    REPO / "docs" / "benchmarks.md",
    REPO / "docs" / "analysis.md",
]

#: Docs whose ``python`` fences must execute as written.
EXECUTABLE_DOCS = [
    REPO / "docs" / "api.md",
    REPO / "docs" / "analysis.md",
]

#: The pre-ledger bench scripts and their artefacts (spelled in parts so
#: this file does not mention them).  ``benchmarks/ledger/`` is the one
#: measurement surface; the history files may still say what was retired.
_RETIRED_BENCHES = ("scheduler_step", "serve", "shards")
#: The removed sharding surface — the ``home`` route, the ``parallel``
#: and ``ordered`` reserve modes and the patience knob of the latter —
#: spelled in parts for the same reason.
_RETIRED_SHARDING = [
    "--shard" + "-route",
    'shard_route="' + 'home"',
    'reserve_mode="' + 'parallel"',
    'reserve_mode="' + 'ordered"',
    "ordered" + "_patience",
]
RETIRED_NAMES = (
    [f"BENCH_{name}" for name in _RETIRED_BENCHES]
    + [f"bench_{name}.py" for name in _RETIRED_BENCHES]
    + _RETIRED_SHARDING
)
MAY_NAME_RETIRED = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SNIPPET = re.compile(r"```python\n(.*?)```", re.S)


def _heading_anchors(text):
    """GitHub-style anchors of every markdown heading in `text`."""
    anchors = set()
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        slug = re.sub(r"[^\w\- ]", "", title.lower())
        anchors.add(slug.replace(" ", "-"))
    return anchors


def _targets(path):
    for match in _LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


class TestLinks:
    @pytest.mark.parametrize(
        "doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_relative_links_resolve(self, doc):
        assert doc.exists(), f"documented file missing: {doc}"
        broken = []
        for target in _targets(doc):
            path_part, __, anchor = target.partition("#")
            resolved = (
                doc if not path_part else (doc.parent / path_part).resolve()
            )
            if not resolved.exists():
                broken.append(target)
            elif anchor and resolved.suffix == ".md":
                if anchor not in _heading_anchors(resolved.read_text()):
                    broken.append(target)
        assert not broken, f"broken links in {doc.name}: {broken}"


class TestRetiredBenchSurface:
    def test_nothing_mentions_the_retired_bench_scripts(self):
        mentions = []
        for path in sorted(REPO.rglob("*")):
            relative = path.relative_to(REPO)
            if (
                path.suffix not in {".md", ".yml", ".py"}
                or relative.parts[0] == ".git"
                or relative.parts[:2] == ("benchmarks", "ledger")
                or str(relative) in MAY_NAME_RETIRED
            ):
                continue
            text = path.read_text(encoding="utf-8")
            mentions += [
                f"{relative}: {name}" for name in RETIRED_NAMES if name in text
            ]
        assert not mentions, f"retired surface quoted: {mentions}"


class TestDocSnippets:
    @staticmethod
    def _snippets(doc):
        return _SNIPPET.findall(doc.read_text())

    @pytest.mark.parametrize(
        "doc", EXECUTABLE_DOCS, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_snippets_present(self, doc):
        assert len(self._snippets(doc)) >= 3

    @pytest.mark.parametrize(
        "doc", EXECUTABLE_DOCS, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_every_snippet_executes(self, doc):
        name = str(doc.relative_to(REPO))
        for index, snippet in enumerate(self._snippets(doc)):
            code = compile(snippet, f"{name}#snippet-{index}", "exec")
            namespace = {"__name__": f"doc_snippet_{index}"}
            try:
                exec(code, namespace)
            except Exception as error:  # pragma: no cover - failure path
                pytest.fail(
                    f"{name} snippet {index} failed: "
                    f"{type(error).__name__}: {error}\n{snippet}"
                )

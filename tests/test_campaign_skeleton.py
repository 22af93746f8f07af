"""One campaign skeleton: :mod:`repro.harness.campaign` is the only
module that knows how a campaign runs.

An AST audit: outside ``repro/harness/campaign.py`` no module under
``src/repro`` touches an ``"interrupted"`` or ``"completed"`` report
key (as a dict-literal key or a subscript) or polls a stop flag (a call
to ``stop()`` or ``stopped()``). The one exception is fuzz's reduction
loop, ``FuzzReport.finish``: a stop there skips the remaining ddmin
reductions but never truncates the report.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
SKELETON = SRC_ROOT / "harness" / "campaign.py"
TRUNCATION_KEYS = {"interrupted", "completed"}
STOP_POLLS = {"stop", "stopped"}
#: (module, function) allowed to poll the stop flag.
POLL_EXCEPTIONS = {("fuzz/campaign.py", "finish")}


def campaign_plumbing(source: str):
    """``(kind, name, line, enclosing function)`` for every truncation
    key (kind ``"key"``) and stop-flag poll (kind ``"poll"``)."""
    hits = []

    def is_key(node) -> bool:
        return isinstance(node, ast.Constant) and \
            node.value in TRUNCATION_KEYS

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Dict):
            hits.extend(("key", key.value, key.lineno, function)
                        for key in node.keys if is_key(key))
        elif isinstance(node, ast.Subscript) and is_key(node.slice):
            hits.append(("key", node.slice.value, node.lineno, function))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in STOP_POLLS:
                hits.append(("poll", name, node.lineno, function))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(source), None)
    return hits


def _plumbing_of(path: Path):
    return campaign_plumbing(path.read_text())


class TestCampaignAudit:
    def test_only_the_skeleton_truncates_and_polls(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path == SKELETON:
                continue
            module = path.relative_to(SRC_ROOT).as_posix()
            for kind, name, line, function in _plumbing_of(path):
                if kind == "poll" and \
                        (module, function) in POLL_EXCEPTIONS:
                    continue
                offenders.append(f"{module}:{line}: {kind} {name!r} "
                                 f"in {function}")
        assert offenders == []

    def test_the_skeleton_is_where_campaign_plumbing_lives(self):
        hits = _plumbing_of(SKELETON)
        assert {name for kind, name, _, _ in hits if kind == "key"} == \
            TRUNCATION_KEYS
        assert ("poll", "stop") in {(kind, name)
                                    for kind, name, _, _ in hits}

    def test_fuzz_reduction_is_the_one_exception(self):
        polls = [(name, function) for kind, name, _, function
                 in _plumbing_of(SRC_ROOT / "fuzz" / "campaign.py")
                 if kind == "poll"]
        assert polls == [("stopped", "finish")]

    def test_the_audit_catches_offenders(self):
        planted = (
            "def fold(doc, report, stop):\n"
            "    doc['interrupted'] = True\n"
            "    out = {'completed': 3}\n"
            "    if stop():\n"
            "        return self.stopped()\n"
        )
        assert [(kind, name, function) for kind, name, _, function
                in campaign_plumbing(planted)] == [
            ("key", "interrupted", "fold"),
            ("key", "completed", "fold"),
            ("poll", "stop", "fold"),
            ("poll", "stopped", "fold"),
        ]
        clean = (
            '"""Mentions "interrupted" and stop() in prose."""\n'
            "def stop():\n"
            "    return 'interrupted' in text\n"
            "if report.interrupted and report.completed:\n"
            "    report.completed = 0\n"
        )
        assert campaign_plumbing(clean) == []

"""``scripts/reach_allowlist.txt`` names functions under ``src/`` that the
product never enters, each with the reason it stays.  Checked here from
the source alone, so an entry that a rename or a deletion leaves behind
fails in tier-1, not only in the slow ``scripts/reach.py`` run."""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_entry_names_one_src_function_with_a_reason():
    defined = {reach.key(path, name)
               for (path, _), (name, _, _) in reach.functions().items()}
    entries = reach.read_allowlist()
    assert entries
    assert [(n, name) for n, name, _ in entries if name not in defined] == []
    assert [(n, name) for n, name, reason in entries if not reason] == []
    counts = Counter(name for _, name, _ in entries)
    assert [name for name, c in counts.items() if c > 1] == []

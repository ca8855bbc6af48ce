"""Every artifact the CLI writes, mutated at every JSON path.

Each artifact is built through the CLI from ``small_corpus`` and read back by
a command that consumes it. At every key path (the first element of each
list, the first two lines of each JSONL file) the test deletes the key, swaps
the value's JSON type and empties the list. The consumer must then exit 2
naming the file, or exit 0 with output byte-identical to the unmutated run;
exit 3 (an internal error) never passes.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from clinconv import save_notes, save_transcripts
from clinconv.cli import main

DATA = Path(__file__).resolve().parents[1] / "src" / "clinconv" / "data"

# Mutations that leave a well-formed artifact with another meaning, so the
# consumer may rightly exit 0 with different output: an example with no
# positive label, an empty selection, and a concept known by its canonical
# name alone. Only the exit code is checked for these.
VALID_VARIANTS = {
    ("labels.jsonl", (2, "labels"), "empty"),
    ("indices.jsonl", (1, "indices"), "empty"),
    ("lexicon.json", ("concepts", 0, "synonyms"), "empty"),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, small_corpus):
    """The artifact directory, and each artifact's consumer command line up to
    the flag that takes the artifact."""
    root = tmp_path_factory.mktemp("artifacts")
    transcripts, notes, few = root / "transcripts.jsonl", root / "notes.jsonl", root / "few.jsonl"
    save_transcripts(transcripts, small_corpus.transcripts)
    save_notes(notes, small_corpus.notes)
    save_transcripts(few, small_corpus.transcripts[:3])
    shutil.copy(DATA / "diagnosis_task_map.json", root / "task_map.json")

    def run(*argv) -> None:
        assert main([str(a) for a in argv]) == 0, argv

    run("derive-labels", "--transcripts", transcripts, "--notes", notes,
        "--task", "diagnosis", "--label-count", "3", "--out", root / "labels.jsonl")
    run("train-filter", "--transcripts", transcripts, "--notes", notes, "--scope", "diagnosis",
        "--labels", root / "labels.jsonl", "--min-df", "3", "--out", root / "filter.json")
    run("build-lexicon", "--concepts", DATA / "concept_lexicon.json", "--out", root / "lexicon.json")
    train = ("train", "--transcripts", transcripts, "--labels", root / "labels.jsonl",
             "--min-df", "3")
    run(*train, "--strategy", "f2k:umls+pred:diagnosis", "--filter", root / "filter.json",
        "--lexicon", root / "lexicon.json", "--task-map", root / "task_map.json",
        "--out", root / "pipe_logistic.json")
    run(*train, "--out", root / "pipe_none.json")
    run(*train, "--strategy", "umls", "--lexicon", root / "lexicon.json",
        "--out", root / "pipe_umls.json")
    run("predict", "--pipeline", root / "pipe_logistic.json", "--transcripts", transcripts,
        "--out", root / "scores.jsonl")
    run("filter", "--transcripts", few, "--strategy", "pred:diagnosis",
        "--filter", root / "filter.json", "--out", root / "indices.jsonl")

    predict = ("predict", "--transcripts", few, "--pipeline")
    consumers = {
        "filter.json": ("filter", "--transcripts", few, "--strategy", "pred:diagnosis", "--filter"),
        "pipe_logistic.json": predict,
        "pipe_none.json": predict,
        "pipe_umls.json": predict,
        "labels.jsonl": ("evaluate", "--scores", root / "scores.jsonl", "--labels"),
        "scores.jsonl": ("evaluate", "--labels", root / "labels.jsonl", "--scores"),
        "indices.jsonl": (*predict, root / "pipe_none.json", "--indices"),
        "lexicon.json": ("tag", "--transcripts", few, "--lexicon"),
        "task_map.json": ("tag", "--transcripts", few, "--lexicon", root / "lexicon.json",
                          "--task-map"),
    }
    return root, consumers


def key_paths(value, path=()):
    """The path of ``value`` and of everything under it, entering only the
    first element of a list."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from key_paths(item, (*path, key))
    elif isinstance(value, list) and value:
        yield from key_paths(value[0], (*path, 0))


def swapped(value):
    """A value of another JSON type."""
    if isinstance(value, dict):
        return []
    if isinstance(value, list):
        return {}
    if isinstance(value, (str, bool)):
        return 0
    return "x"  # numbers and null


def mutations(document):
    """(path, kind, apply, undo) for every mutation of ``document`` in place."""
    for path in list(key_paths(document)):
        if not path:
            continue
        *head, key = path
        parent = document
        for step in head:
            parent = parent[step]
        value = parent[key]
        if isinstance(parent, dict):
            items = list(parent.items())

            def undo(parent=parent, items=items):
                parent.clear()
                parent.update(items)
        else:
            undo = lambda parent=parent, key=key, value=value: parent.__setitem__(key, value)
        put = lambda new, parent=parent, key=key: lambda: parent.__setitem__(key, new)
        if isinstance(parent, dict) and head:
            yield path, "delete", lambda parent=parent, key=key: parent.pop(key), undo
        yield path, "swap", put(swapped(value)), undo
        if isinstance(value, list) and value:
            yield path, "empty", put([]), undo


@pytest.mark.parametrize(
    "name",
    [
        "filter.json",
        "pipe_logistic.json",
        "pipe_none.json",
        "pipe_umls.json",
        "labels.jsonl",
        "scores.jsonl",
        "indices.jsonl",
        "lexicon.json",
        "task_map.json",
    ],
)
def test_every_mutation_is_rejected_or_changes_nothing(artifacts, tmp_path, capsys, name):
    root, consumers = artifacts
    target = tmp_path / name
    out = tmp_path / "out"
    jsonl = name.endswith(".jsonl")
    if jsonl:
        # Line numbers lead the paths, so the first two lines are walked.
        lines = [json.loads(line) for line in (root / name).read_text().splitlines()]
        document = {1: lines[0], 2: lines[1]}
    else:
        document = {0: json.loads((root / name).read_text())}

    def consume() -> tuple[int, str, bytes | None]:
        if jsonl:
            text = "".join(json.dumps(line) + "\n" for line in [document[1], document[2], *lines[2:]])
        else:
            text = json.dumps(document[0])
        target.write_text(text)
        out.unlink(missing_ok=True)
        code = main([str(a) for a in (*consumers[name], target, "--out", out)])
        err = capsys.readouterr().err
        return code, err, out.read_bytes() if out.exists() else None

    code, err, expected = consume()
    assert code == 0, err

    failures = []
    count = 0
    for path, kind, apply, undo in mutations(document):
        path = path if jsonl else path[1:]
        count += 1
        apply()
        code, err, output = consume()
        undo()
        if code == 2 and str(target) in err:
            continue
        if code == 0 and (output == expected or (name, path, kind) in VALID_VARIANTS):
            continue
        failures.append(f"{kind} {path}: exit {code}: {err.strip().splitlines()[-1:] or 'output changed'}")
    assert count >= 10
    assert not failures, f"{len(failures)} of {count} mutations of {name}:\n" + "\n".join(failures)

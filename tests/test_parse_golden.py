"""Golden parse behaviour: 900 seeded texts through all six
`parse_*` entry points, compared with hashes recorded in
`tests/data/parse_golden.json`.

The texts are the model files of `corpus/` and `tests/data/` (one of the
dialect suffixes in `MODEL_SUFFIXES`; other tests' expected outputs there
are not inputs), models printed from the `helpers` generators, and seeded
token-level mutations of each: a token dropped, duplicated, swapped with
another or overwritten by a copy of another, a keyword inserted, the text
cut short. Every outcome is the sha256 of the rendered diagnostics plus the
printed model (or `None`), kept as its first 16 hex digits. Nothing here
depends on set or hash order, so every Python version reads the same texts.

Regenerate the file only for an intended change of parse behaviour or of
the texts:

    PYTHONPATH=src python tests/test_parse_golden.py

To see what a regeneration changed, decode both sides and diff them. The
`--decode` mode prints one JSON line per text and entry point: the label,
the entry point, the rendered diagnostics and whether a model came back.

    PYTHONPATH=src python tests/test_parse_golden.py --decode > decoded.jsonl
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import zlib
from pathlib import Path

from apimod.dsl import (
    parse_api_descriptor, parse_goal_model, parse_metric_catalog, parse_model,
    parse_scenario, parse_value_model, print_model,
)
from apimod.dsl.parser import KEYWORDS

from helpers import CORPUS, gen_goal_model, gen_scenario, gen_value_model

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "parse_golden.json"

PARSERS = (parse_model, parse_value_model, parse_goal_model,
           parse_api_descriptor, parse_metric_catalog, parse_scenario)
VARIANTS = 11  # mutated texts per base text
MODEL_SUFFIXES = (".gm", ".vm", ".api", ".metrics", ".scn")

# Chunks that join back to the text: strings (closed or not), comments,
# arrows, names, numbers, blank runs and any other single character.
_CHUNK = re.compile(r'"(?:[^"\\\n]|\\.)*"?|//[^\n]*|->|[A-Za-z_][A-Za-z0-9_]*'
                    r'|[0-9]+(?:\.[0-9]+)?|\s+|.', re.DOTALL)
_INSERTS = sorted(KEYWORDS) + ["{", "}", "=", ":", ",", ".", "->", '"a.b"']


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def base_texts() -> list[tuple[str, str]]:
    """(label, text) for every unmutated text, in a fixed order."""
    root = CORPUS.parent
    files = sorted(p for d in (CORPUS, DATA) for p in d.rglob("*")
                   if p.is_file() and p.suffix in MODEL_SUFFIXES)
    texts = [(p.relative_to(root).as_posix(), p.read_text(encoding="utf-8"))
             for p in files]
    for i in range(25):
        rng = random.Random(100 + i)
        texts.append((f"gen/goal{i}", print_model(
            gen_goal_model(rng, max_elements=4 + i % 10, max_links=16))))
    for i in range(25):
        rng = random.Random(200 + i)
        texts.append((f"gen/value{i}", print_model(
            gen_value_model(rng, max_elements=5 + i % 16))))
    for i in range(10):
        rng = random.Random(300 + i)
        model = gen_goal_model(rng, max_elements=8)
        texts.append((f"gen/scenario{i}", print_model(gen_scenario(rng, model))))
    return texts


def mutate(text: str, rng: random.Random) -> str:
    """One to three token-level mutations of `text`."""
    chunks = _CHUNK.findall(text)
    for _ in range(rng.randint(1, 3)):
        tokens = [i for i, c in enumerate(chunks)
                  if c and not c.isspace() and not c.startswith("//")]
        if not tokens:
            break
        i = rng.choice(tokens)
        op = rng.randrange(6)
        if op == 0:
            del chunks[i]
        elif op == 1:
            chunks[i:i + 1] = [chunks[i], " ", chunks[i]]
        elif op == 2:
            j = rng.choice(tokens)
            chunks[i], chunks[j] = chunks[j], chunks[i]
        elif op == 3:
            chunks[i] = chunks[rng.choice(tokens)]
        elif op == 4:
            chunks[i:i] = [rng.choice(_INSERTS), " "]
        else:
            chunks[i:] = [chunks[i][:rng.randrange(len(chunks[i]))]]
    return "".join(chunks)


def golden_texts() -> list[tuple[str, str]]:
    texts = []
    for label, text in base_texts():
        texts.append((label, text))
        rng = random.Random(zlib.crc32(label.encode("utf-8")))
        texts.extend((f"{label}~{k}", mutate(text, rng)) for k in range(1, VARIANTS + 1))
    return texts


def outcome(parse, text: str) -> str:
    result = parse(text, "m")
    shown = "None" if result.model is None else print_model(result.model)
    lines = [d.render() for d in result.diagnostics] + ["--", shown]
    return _digest("\n".join(lines))


def record(label_texts) -> dict[str, list[str]]:
    """label -> [text digest, one outcome digest per entry point]."""
    return {label: [_digest(text)] + [outcome(p, text) for p in PARSERS]
            for label, text in label_texts}


def decode(label_texts):
    """One JSON line per text and entry point, in the golden file's order."""
    for label, text in label_texts:
        for parse in PARSERS:
            result = parse(text, "m")
            yield json.dumps({"label": label, "parser": parse.__name__,
                              "diagnostics": [d.render() for d in result.diagnostics],
                              "model": result.model is not None})


def dump(golden: dict[str, list[str]]) -> str:
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_parse_behaviour_matches_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    texts = golden_texts()
    assert [label for label, _ in texts] == list(golden)
    drifted = [label for label, text in texts if _digest(text) != golden[label][0]]
    assert drifted == [], "the generated inputs changed, not the parsers"
    now = record(texts)
    changed = [(label, PARSERS[i].__name__)
               for label, digests in now.items()
               for i, (new, old) in enumerate(zip(digests[1:], golden[label][1:]))
               if new != old]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--decode"]:
        for line in decode(golden_texts()):
            print(line)
    else:
        GOLDEN.write_text(dump(record(golden_texts())), encoding="utf-8")

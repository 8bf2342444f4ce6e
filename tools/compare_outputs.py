"""Compare the documents and job outputs of two `output_manifest.py`
output trees.

    python3 tools/compare_outputs.py A_DIR B_DIR

A_DIR and B_DIR are the OUT_DIR of two `tools/output_manifest.py` runs (for
instance of a parent checkout and of a change, each tree moved aside after
its run). Every file under either tree is reported by its path relative to
the tree:

* `identical`: the same bytes;
* `provenance-only`: the same kind, schema and payload, the provenance
  differing (documents record the paths they were made from);
* otherwise `payload differs`, and then one indented line per number that
  differs, named by its place in the payload with list indices left out
  (`steps[].residual`): the largest absolute and relative difference over
  all its instances. The last entry of a `steps` list, the end of a
  continuation and the only step solved to `--tol`, has places of its own
  (`steps[-1].residual`). Under a `dual_points` key a line also gives the
  largest difference of the points' Minkowski Gram matrices, which an
  isometry of the whole configuration leaves unchanged. A key that only one
  side's dict has gets a line of its own (`steps[].smallest_singular_value:
  only in A`, A being the first tree), and the keys both sides have are
  compared as above. A payload whose list lengths or non-numeric values
  differ is reported as such;
* a file that is no document, such as a job's standard output, that differs
  is reported as `text differs`, and then its differing lines, as a unified
  diff without context: an `@@` line per run of changed lines, then the
  run's lines in A (`-`) and in B (`+`).

A file present in one tree only is reported too. Exits 0 when every file is
identical or provenance-only, 1 otherwise, 2 on bad arguments.
"""
import difflib
import json
import os
import sys

import numpy as np

J = np.diag([-1.0, 1.0, 1.0, 1.0])     # the Minkowski form of the documents
LAST_APART = "steps"        # the list whose last entry is reported apart


class StructureDiffers(Exception):
    pass


def numeric_pairs(a, b, path, out, only):
    """Append (a, b) under out[place] for every pair of numbers at the same
    place in a and b, and the Gram matrix entries of every `dual_points`
    pair under out[place + " Gram"]; set only[place] to "A" or "B" for a dict
    key that a or b alone has; raise StructureDiffers where list lengths or
    other values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() ^ b.keys()):
            only[f"{path}.{k}" if path else k] = "A" if k in a else "B"
        for k in (k for k in a if k in b):
            numeric_pairs(a[k], b[k], f"{path}.{k}" if path else k, out, only)
            if k == "dual_points":
                pa, pb = np.array(a[k], dtype=float), np.array(b[k], dtype=float)
                out.setdefault(f"{path}.{k} Gram", []).extend(
                    zip((pa @ J @ pa.T).ravel(), (pb @ J @ pb.T).ravel()))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise StructureDiffers(f"length of {path}")
        place = path if path.endswith("[]") else path + "[]"
        for i, (x, y) in enumerate(zip(a, b)):
            last = i == len(a) - 1 and path.rsplit(".", 1)[-1] == LAST_APART
            numeric_pairs(x, y, path + "[-1]" if last else place, out, only)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        out.setdefault(path, []).append((float(a), float(b)))
    elif a != b:
        raise StructureDiffers(f"value of {path}")


def payload_report(a, b) -> list:
    """The indented lines of every key on one side only and of every number
    place that differs."""
    places, only = {}, {}
    try:
        numeric_pairs(a, b, "", places, only)
    except StructureDiffers as exc:
        return [f"  structure differs ({exc})"]
    lines = [f"  {place}: only in {side}" for place, side in only.items()]
    for place, pairs in places.items():
        x, y = np.array(pairs).T
        diff = np.abs(x - y)
        if not diff.any():
            continue
        size = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(diff, size, out=np.zeros_like(diff), where=size > 0)
        lines.append(f"  {place}: max abs diff {diff.max():.3e}, "
                     f"max rel diff {rel.max():.3e}")
    return lines


def text_report(raw_a, raw_b) -> list:
    """The lines of a differing text file: `text differs`, then its diff."""
    a, b = (raw.decode(errors="replace").splitlines() for raw in (raw_a, raw_b))
    diff = list(difflib.unified_diff(a, b, lineterm="", n=0))[2:]
    return ["text differs"] + [f"  {line}" for line in diff]


def document_report(path_a, path_b) -> tuple:
    """(ok, text) for one file present in both trees."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        raw_a, raw_b = fa.read(), fb.read()
    if raw_a == raw_b:
        return True, "identical"
    try:
        doc_a, doc_b = json.loads(raw_a), json.loads(raw_b)
        pay_a, pay_b = doc_a["payload"], doc_b["payload"]
    except (ValueError, KeyError, TypeError):
        return False, "\n".join(text_report(raw_a, raw_b))
    if any(doc_a.get(k) != doc_b.get(k) for k in ("kind", "schema_version")):
        return False, "kind or schema differs"
    if pay_a == pay_b:
        return True, "provenance-only"
    return False, "\n".join(["payload differs"] + payload_report(pay_a, pay_b))


def relative_files(root) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def main(argv) -> int:
    if len(argv) != 2 or not all(os.path.isdir(a) for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = argv
    files_a, files_b = relative_files(dir_a), relative_files(dir_b)
    all_ok = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            ok, text = False, f"only in {dir_a if rel in files_a else dir_b}"
        else:
            ok, text = document_report(os.path.join(dir_a, rel),
                                       os.path.join(dir_b, rel))
        all_ok &= ok
        print(f"{rel}: {text}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

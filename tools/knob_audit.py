#!/usr/bin/env python3
"""Knob audit: every field of a serving-layer *Options struct must be set
by some program, or say why it stays settable.

Lists each field of each `struct <Name>Options { ... };` in
src/{cluster,obs,serve}/*.h. A field counts as set when a file under src/,
bench/, examples/ or perfbench/ assigns to it (`.name =`, `->name =`, or a
designated initializer `.name =`); tests do not count. A field that nothing
sets is a finding unless its declaration carries one of these tags, on its
own line or in the comment block above it:

    // knob: deployment   a per-deployment setting (sizes, windows, paths)
    // knob: test-seam    a substitution point for tests (injected clocks)
    // knob: switch       its default turns a behaviour off that a test
                          turns on; a constant would delete the behaviour

A field whose type is another audited *Options struct is a group, not a
value: its own fields are audited. An assignment through a group field
(`options.shard.sessions.capacity = ...`) sets only that group's struct;
any other assignment (`options.capacity = ...`) sets every field of that
name.

Usage:
    knob_audit.py [--root DIR] [--list]

Exit status: 0 when every field is set or tagged, 1 otherwise.
"""

import argparse
import pathlib
import re
import sys

HEADER_DIRS = ["src/cluster", "src/obs", "src/serve"]
SETTER_DIRS = ["src", "bench", "examples", "perfbench"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}
TAGS = ("deployment", "test-seam", "switch")

STRUCT_RE = re.compile(r"^struct\s+(\w+Options)\s*\{")
# `type name = default;` or `type name;` at the struct's top level.
FIELD_RE = re.compile(
    r"^\s*(?:const\s+)?([\w:<>,\s\*&()]+?)\s+\*?(\w+)\s*(?:=[^;]*|\{[^;]*\})?;")
TAG_RE = re.compile(r"//\s*knob:\s*([\w-]+)")


def parse_options(header):
    """Yields (struct, field, type, tag, line) for each Options field."""
    lines = header.read_text().splitlines()
    i = 0
    while i < len(lines):
        match = STRUCT_RE.match(lines[i])
        if not match:
            i += 1
            continue
        struct = match.group(1)
        depth = 1
        pending = []  # comment lines above the next declaration
        i += 1
        while i < len(lines) and depth > 0:
            line = lines[i]
            stripped = line.strip()
            if depth == 1 and stripped.startswith("//"):
                pending.append(stripped)
            elif depth == 1 and stripped and stripped != "};":
                statement, start = line, i
                while ";" not in statement and i + 1 < len(lines):
                    i += 1
                    statement += " " + lines[i].strip()
                field = FIELD_RE.match(statement.split("//")[0])
                if field and "(" not in field.group(2):
                    tags = TAG_RE.findall(" ".join(pending + [statement]))
                    yield (struct, field.group(2), field.group(1).strip(),
                           tags[0] if tags else None, start + 1)
                pending = []
            else:
                pending = [] if not stripped else pending
            depth += line.count("{") - line.count("}")
            i += 1


def assignments(root):
    """(receiver, member) for every member assignment outside tests; the
    receiver is the identifier just before the member, or "" for none."""
    found = set()
    assign = re.compile(r"(\w*)\s*(?:\.|->)\s*(\w+)\s*=(?!=)")
    for top in SETTER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                found.update(assign.findall(path.read_text(errors="replace")))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--list", action="store_true",
                        help="print every field, not only the findings")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    fields = []
    for top in HEADER_DIRS:
        for header in sorted((root / top).glob("*.h")):
            for struct, name, type_, tag, line in parse_options(header):
                fields.append((header.relative_to(root), struct, name, type_,
                               tag, line))
    structs = {struct for _, struct, *_ in fields}
    groups = {}  # group field name -> the Options structs it holds
    for _, _, name, type_, _, _ in fields:
        if type_.split("::")[-1] in structs:
            groups.setdefault(name, set()).add(type_.split("::")[-1])
    found = assignments(root)

    def is_set(struct, name):
        return any(member == name and struct in groups.get(receiver, {struct})
                   for receiver, member in found)

    findings = 0
    values = 0
    for path, struct, name, type_, tag, line in fields:
        if type_.split("::")[-1] in structs:
            verdict = "group"
        else:
            values += 1
            if tag is not None and tag not in TAGS:
                verdict = f"UNKNOWN TAG {tag!r}"
                findings += 1
            elif is_set(struct, name):
                verdict = "set"
            elif tag is not None:
                verdict = f"knob: {tag}"
            else:
                verdict = "UNSET: set only by tests, if at all"
                findings += 1
        if args.list or verdict.startswith(("UNSET", "UNKNOWN")):
            print(f"{path}:{line}: {struct}::{name}: {verdict}")
    print(f"{values} settable values in {len(structs)} Options structs, "
          f"{findings} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fail when a util::require/util::ensure call builds its message eagerly.

The checks take a printf format and format it only when the condition is
false. A message argument that calls format() or std::to_string(), or that
concatenates with `+`, is built on every call, including the passing ones.
For each `require(`/`ensure(` call this follows the parentheses across
lines and reports `file:line` when the arguments after the condition do so.

    python3 scripts/check_lazy_messages.py [root]   # default root: src
"""

import pathlib
import re
import sys

CALL = re.compile(r"\b(?:require|ensure)\s*\(")
EAGER = re.compile(r"\bformat\s*\(|\bto_string\s*\(|\+")


def mask(text):
    """Blanks comments and the contents of string and char literals.

    Newlines stay, so an offset in the result has the same line in `text`.
    """
    out = list(text)

    def blank(begin, end):
        for j in range(begin, min(end, len(text))):
            if out[j] != "\n":
                out[j] = " "

    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            blank(i, end)
            i = end
        elif text[i] in "\"'":
            end = i + 1
            while end < n and text[end] != text[i]:
                end += 2 if text[end] == "\\" else 1
            blank(i + 1, end)  # keep the quotes themselves
            i = end + 1
        else:
            i += 1
    return "".join(out)


def message_args(code, start):
    """The text after the first top-level comma of the call at `start`."""
    depth, comma = 0, None
    for i in range(start, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return "" if comma is None else code[comma + 1:i]
        elif c == "," and depth == 1 and comma is None:
            comma = i
    return ""


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    found = 0
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        code = mask(path.read_text())
        for call in CALL.finditer(code):
            if EAGER.search(message_args(code, call.end() - 1)):
                line = code.count("\n", 0, call.start()) + 1
                print(f"{path}:{line}: message built before the check")
                found += 1
    if found:
        print(f"{found} require/ensure call(s) build their message eagerly; "
              "pass a printf format and its arguments instead",
              file=sys.stderr)
        return 1
    print("lazy require/ensure messages: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

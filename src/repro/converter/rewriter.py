"""Source conversion: the rewriting half of the ROS-SF Converter.

Two services, mirroring Section 4.3.2:

- :func:`rewrite_imports_to_sfm` performs the Python analogue of the
  heap-allocation rewrite: it swaps imports of plain library message
  classes for their SFM-generated equivalents, so every construction site
  in the file allocates a serialization-free message -- no other line of
  the program changes, which is the transparency claim.
- :func:`conversion_guidance` renders the paper's "modification guidance"
  for each violation the analyzer found, including the Fig. 19/21-style
  rewritten snippets.
"""

from __future__ import annotations

import ast

from repro.converter.analyzer import (
    OTHER_METHODS,
    STRING_REASSIGNMENT,
    VECTOR_MULTI_RESIZE,
    FileReport,
)

_LIBRARY_MODULES = ("repro.msg.library", "repro.msg")


def rewrite_imports_to_sfm(source: str) -> str:
    """Rewrite ``from repro.msg.library import X, Y`` to obtain the SFM
    classes instead.

    >>> print(rewrite_imports_to_sfm(
    ...     "from repro.msg.library import Image\\n"
    ... ).strip())
    from repro.rossf import sfm_classes_for
    Image, = sfm_classes_for("sensor_msgs/Image")
    """
    from repro.msg.library import DEFINITIONS

    short_to_full = {
        name.rsplit("/", 1)[-1]: name for name in DEFINITIONS
    }
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    replacements: list[tuple[int, int, str]] = []  # (start, end, text)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module not in _LIBRARY_MODULES:
            continue
        imported = [alias.name for alias in node.names]
        if node.module == "repro.msg" and imported != ["library"]:
            continue
        if node.module == "repro.msg":
            # ``from repro.msg import library`` -> expose an SFM mirror.
            text = (
                "from repro.rossf import framework as _rossf\n"
                "library = _rossf.messages()\n"
            )
        else:
            unknown = [name for name in imported if name not in short_to_full]
            if unknown:
                continue  # not message classes; leave untouched
            targets = ", ".join(imported)
            full_names = ", ".join(
                f'"{short_to_full[name]}"' for name in imported
            )
            trailing_comma = "," if len(imported) == 1 else ""
            text = (
                "from repro.rossf import sfm_classes_for\n"
                f"{targets}{trailing_comma} = sfm_classes_for({full_names})\n"
            )
        replacements.append((node.lineno - 1, node.end_lineno, text))
    for start, end, text in sorted(replacements, reverse=True):
        lines[start:end] = [text]
    return "".join(lines)


_GUIDANCE = {
    STRING_REASSIGNMENT: (
        "One-Shot String Assignment violated: compute the final string "
        "before constructing the message and assign it exactly once.  "
        "Example rewrite (paper Fig. 19): build a temporary header with "
        "the final frame_id and pass it to the conversion, instead of "
        "patching header.frame_id afterwards."
    ),
    VECTOR_MULTI_RESIZE: (
        "One-Shot Vector Resizing violated: count the final number of "
        "elements first, resize exactly once, then fill by index.  If the "
        "message is an output parameter, document (or assert) that "
        "callers pass an unsized field."
    ),
    OTHER_METHODS: (
        "No Modifier violated: sfm vectors do not implement size-"
        "modifying methods.  Example rewrite (paper Fig. 21): first count "
        "the valid elements, resize once to that count, then assign "
        "elements by index -- which also avoids repeated reallocation in "
        "the original ROS."
    ),
}


def conversion_guidance(report: FileReport) -> str:
    """Human-readable modification guidance for a file's violations."""
    if not report.violations:
        return (
            f"{report.path}: satisfies all three ROS-SF assumptions; "
            "the import swap is sufficient."
        )
    lines = [f"{report.path}: {len(report.violations)} violation(s)"]
    for violation in report.violations:
        lines.append(
            f"  line {violation.line}: [{violation.kind}] "
            f"{violation.field_path} ({violation.message_class}) -- "
            f"{violation.detail}"
        )
        lines.append(f"    guidance: {_GUIDANCE[violation.kind]}")
    return "\n".join(lines)

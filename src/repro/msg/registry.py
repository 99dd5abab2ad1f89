"""Global message type registry and md5 fingerprints.

ROS identifies message types on the wire by an md5 fingerprint of the
canonical definition text; publisher and subscriber exchange fingerprints
during the TCPROS handshake and refuse to connect on mismatch.  We
reproduce genmsg's scheme: the fingerprint of a spec hashes its constant
declarations followed by its field declarations, with every nested complex
type name replaced by that type's own fingerprint.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterator

from repro.msg.fields import (
    ArrayType,
    ComplexType,
    FieldType,
    MapType,
    PrimitiveType,
    StringType,
)
from repro.msg.idl import MessageSpec, parse_message_definition


class UnknownTypeError(KeyError):
    """Raised when a complex type is referenced but not registered."""


class TypeRegistry:
    """Thread-safe registry mapping full type names to specs.

    The registry also resolves structural questions that require the whole
    type graph (fixed-size-ness of nested messages, dependency closure,
    fingerprints) and caches their answers.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._specs: dict[str, MessageSpec] = {}
        self._md5_cache: dict[str, str] = {}
        self._fixed_size_cache: dict[str, bool] = {}
        self._flat_size_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, spec: MessageSpec) -> MessageSpec:
        """Register ``spec``; re-registering identical text is a no-op."""
        with self._lock:
            existing = self._specs.get(spec.full_name)
            if existing is not None:
                if existing.text != spec.text:
                    raise ValueError(
                        f"conflicting registration for {spec.full_name}"
                    )
                return existing
            self._specs[spec.full_name] = spec
            self._invalidate_caches()
            return spec

    def register_text(self, full_name: str, text: str) -> MessageSpec:
        """Parse and register a definition in one step."""
        return self.register(parse_message_definition(full_name, text))

    def get(self, full_name: str) -> MessageSpec:
        with self._lock:
            try:
                return self._specs[full_name]
            except KeyError:
                raise UnknownTypeError(full_name) from None

    def __contains__(self, full_name: str) -> bool:
        with self._lock:
            return full_name in self._specs

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._specs)

    def _invalidate_caches(self) -> None:
        self._md5_cache.clear()
        self._fixed_size_cache.clear()
        self._flat_size_cache.clear()

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def is_fixed_size(self, ftype: FieldType) -> bool:
        """Whole-graph fixed-size check (arrays of fixed-size messages with
        declared lengths are fixed-size, etc.)."""
        if isinstance(ftype, PrimitiveType):
            return True
        if isinstance(ftype, (StringType, MapType)):
            return False
        if isinstance(ftype, ArrayType):
            return ftype.length is not None and self.is_fixed_size(
                ftype.element_type
            )
        if isinstance(ftype, ComplexType):
            return self._spec_fixed_size(ftype.name, frozenset())
        raise TypeError(f"unknown field type {ftype!r}")

    def _spec_fixed_size(self, full_name: str, stack: frozenset) -> bool:
        with self._lock:
            cached = self._fixed_size_cache.get(full_name)
            if cached is not None:
                return cached
        if full_name in stack:
            raise ValueError(f"recursive message type {full_name}")
        spec = self.get(full_name)
        stack = stack | {full_name}
        result = True
        for field in spec.fields:
            if not self._field_fixed_size(field.type, stack):
                result = False
                break
        with self._lock:
            self._fixed_size_cache[full_name] = result
        return result

    def _field_fixed_size(self, ftype: FieldType, stack: frozenset) -> bool:
        if isinstance(ftype, PrimitiveType):
            return True
        if isinstance(ftype, (StringType, MapType)):
            return False
        if isinstance(ftype, ArrayType):
            return ftype.length is not None and self._field_fixed_size(
                ftype.element_type, stack
            )
        if isinstance(ftype, ComplexType):
            return self._spec_fixed_size(ftype.name, stack)
        raise TypeError(f"unknown field type {ftype!r}")

    def dependency_closure(self, full_name: str) -> list[str]:
        """All complex types reachable from ``full_name`` in a stable
        topological-ish (DFS post-order) ordering, excluding the root."""
        seen: list[str] = []
        visited: set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for dep in self.get(name).complex_dependencies():
                visit(dep)
            seen.append(name)

        for dep in self.get(full_name).complex_dependencies():
            visit(dep)
        return seen

    # ------------------------------------------------------------------
    # md5 fingerprints (genmsg scheme)
    # ------------------------------------------------------------------
    def md5sum(self, full_name: str) -> str:
        with self._lock:
            cached = self._md5_cache.get(full_name)
        if cached is not None:
            return cached
        digest = self._compute_md5(full_name, frozenset())
        with self._lock:
            self._md5_cache[full_name] = digest
        return digest

    def _compute_md5(self, full_name: str, stack: frozenset) -> str:
        if full_name in stack:
            raise ValueError(f"recursive message type {full_name}")
        spec = self.get(full_name)
        stack = stack | {full_name}
        lines: list[str] = []
        for const in spec.constants:
            lines.append(f"{const.type.name} {const.name}={const.raw_value}")
        for field in spec.fields:
            lines.append(self._md5_field_line(field.name, field.type, stack))
        text = "\n".join(lines)
        return hashlib.md5(text.encode("utf-8")).hexdigest()

    def _md5_field_line(self, name: str, ftype: FieldType, stack: frozenset) -> str:
        if isinstance(ftype, ComplexType):
            return f"{self._compute_md5(ftype.name, stack)} {name}"
        if isinstance(ftype, ArrayType) and isinstance(
            ftype.element_type, ComplexType
        ):
            inner = self._compute_md5(ftype.element_type.name, stack)
            suffix = f"[{ftype.length}]" if ftype.length is not None else "[]"
            return f"{inner}{suffix} {name}"
        return f"{ftype.name} {name}"

    def full_text(self, full_name: str) -> str:
        """The concatenated definition text (root plus all dependencies),
        matching ROS's ``message_definition`` handshake field."""
        parts = [self.get(full_name).text]
        separator = "\n" + "=" * 80 + "\n"
        for dep in self.dependency_closure(full_name):
            parts.append(f"MSG: {dep}\n{self.get(dep).text}")
        return separator.join(parts)

    # ------------------------------------------------------------------
    # Field iteration helpers shared by serializers
    # ------------------------------------------------------------------
    def iter_flat_fields(self, full_name: str) -> Iterator[tuple[str, FieldType]]:
        """Yield ``(dotted_path, type)`` for every leaf field, flattening
        nested messages (arrays are leaves)."""
        for field in self.get(full_name).fields:
            yield from self._iter_flat(field.name, field.type)

    def _iter_flat(self, prefix: str, ftype: FieldType):
        if isinstance(ftype, ComplexType):
            for field in self.get(ftype.name).fields:
                yield from self._iter_flat(f"{prefix}.{field.name}", field.type)
        else:
            yield prefix, ftype


#: Process-wide registry used by the message library, generators and
#: serializers unless an explicit registry is supplied.
default_registry = TypeRegistry()

"""Common interface implemented by every wire format.

The Fig. 14 benchmark drives seven "middlewares" through one loop; this
interface is the seam that makes them interchangeable.  Serialization-free
formats additionally implement :meth:`WireFormat.wrap`, which turns a
received buffer into an accessor object *without copying* -- the defining
operation of FlatData, FlatBuffer and SFM.
"""

from __future__ import annotations

from typing import Optional

from repro.msg.registry import TypeRegistry, default_registry


class WireFormat:
    """A (de)serialization scheme for generated messages."""

    #: Human-readable name used in benchmark output rows.
    name: str = "abstract"

    #: True when :meth:`wrap` provides zero-copy access to a received
    #: buffer (i.e. the format is serialization-free).
    serialization_free: bool = False

    def __init__(self, registry: Optional[TypeRegistry] = None) -> None:
        self.registry = registry or default_registry

    def serialize(self, msg) -> bytes:
        """Convert a message object into a contiguous wire buffer."""
        raise NotImplementedError

    def deserialize(self, type_name: str, buffer):
        """Convert a wire buffer back into a message object (copying)."""
        raise NotImplementedError

    def wrap(self, type_name: str, buffer):
        """Zero-copy accessor over ``buffer`` (serialization-free formats
        only).  Raises :class:`NotImplementedError` otherwise."""
        raise NotImplementedError(
            f"{self.name} is not a serialization-free format"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WireFormat {self.name}>"

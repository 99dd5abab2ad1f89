"""The user-facing ROS-SF switch.

The paper's framework is applied by regenerating message headers (SFM
Generator) and letting the converter adjust user sources; the compiled
program then runs serialization-free under the unchanged ROS API.  The
Python equivalent: application code obtains its message classes through
this module instead of :mod:`repro.msg.library` -- one import line, which
:mod:`repro.converter.rewriter` can change automatically -- and everything
else (construction, field access, ``advertise``/``publish``/``subscribe``)
stays byte-for-byte identical.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from repro.msg.registry import TypeRegistry, default_registry
from repro.sfm.generator import generate_sfm_class


def sfm_classes_for(
    *type_names: str, registry: Optional[TypeRegistry] = None
) -> list[type]:
    """SFM message classes for the given full type names.

    >>> Image, = sfm_classes_for("sensor_msgs/Image")  # doctest: +SKIP
    """
    if registry is None:
        import repro.msg.library  # noqa: F401  (registers the library)

        registry = default_registry
    return [generate_sfm_class(name, registry) for name in type_names]


def messages(registry: Optional[TypeRegistry] = None) -> SimpleNamespace:
    """An ``sfm`` mirror of :mod:`repro.msg.library`: every library type
    as an SFM class, attribute-addressable by short name.

    >>> sfm = messages()  # doctest: +SKIP
    >>> img = sfm.Image(height=480, width=640)  # doctest: +SKIP
    """
    from repro.msg.library import DEFINITIONS

    registry = registry or default_registry
    return SimpleNamespace(
        **{
            full_name.rsplit("/", 1)[-1]: generate_sfm_class(full_name, registry)
            for full_name in DEFINITIONS
        }
    )

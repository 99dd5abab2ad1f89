"""The ``.srv`` service definition language.

A service definition is two message definitions separated by a ``---``
line: the request and the response.  As in ROS, the generated artifacts
are a request class, a response class and a service handle whose md5
fingerprint hashes the concatenated request+response definitions, checked
during the service handshake.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.msg.generator import generate_message_class
from repro.msg.idl import MessageDefinitionError, MessageSpec, parse_message_definition
from repro.msg.registry import TypeRegistry, default_registry

SEPARATOR = "---"


@dataclass
class ServiceSpec:
    """A parsed service definition."""

    full_name: str
    request: MessageSpec
    response: MessageSpec
    text: str


def parse_service_definition(full_name: str, text: str) -> ServiceSpec:
    """Split a ``.srv`` body at ``---`` and parse both halves.

    >>> spec = parse_service_definition(
    ...     "pkg/AddTwoInts", "int64 a\\nint64 b\\n---\\nint64 sum\\n"
    ... )
    >>> spec.request.field_names(), spec.response.field_names()
    (['a', 'b'], ['sum'])
    """
    if "/" not in full_name:
        raise MessageDefinitionError(
            f"service name must be package-qualified: {full_name!r}"
        )
    request_lines: list[str] = []
    response_lines: list[str] = []
    current = request_lines
    seen_separator = False
    for line in text.splitlines():
        if line.strip() == SEPARATOR:
            if seen_separator:
                raise MessageDefinitionError(
                    f"{full_name}: multiple '---' separators"
                )
            seen_separator = True
            current = response_lines
            continue
        current.append(line)
    if not seen_separator:
        raise MessageDefinitionError(f"{full_name}: missing '---' separator")
    request = parse_message_definition(
        f"{full_name}Request", "\n".join(request_lines)
    )
    response = parse_message_definition(
        f"{full_name}Response", "\n".join(response_lines)
    )
    return ServiceSpec(full_name=full_name, request=request,
                       response=response, text=text)


class ServiceRegistry:
    """Registers service specs and their request/response message types."""

    def __init__(self, registry: Optional[TypeRegistry] = None) -> None:
        self.types = registry or default_registry
        self._services: dict[str, ServiceSpec] = {}

    def register_text(self, full_name: str, text: str) -> ServiceSpec:
        existing = self._services.get(full_name)
        if existing is not None:
            if existing.text != text:
                raise ValueError(f"conflicting registration for {full_name}")
            return existing
        spec = parse_service_definition(full_name, text)
        self.types.register(spec.request)
        self.types.register(spec.response)
        self._services[full_name] = spec
        return spec

    def get(self, full_name: str) -> ServiceSpec:
        return self._services[full_name]

    def md5sum(self, full_name: str) -> str:
        """Service fingerprint: md5 over the request and response md5
        texts concatenated (the genmsg scheme)."""
        spec = self.get(full_name)
        combined = (
            self.types.md5sum(spec.request.full_name)
            + self.types.md5sum(spec.response.full_name)
        )
        return hashlib.md5(combined.encode("ascii")).hexdigest()


#: Standard services, transcribed from std_srvs plus a benchmark service.
SERVICE_DEFINITIONS: dict[str, str] = {
    "std_srvs/Trigger": (
        "# sfm_capacity: 64\n"
        "---\n"
        "bool success\n"
        "string message\n"
        "# sfm_capacity: 1024\n"
    ),
    "std_srvs/SetBool": (
        "bool data\n"
        "# sfm_capacity: 64\n"
        "---\n"
        "bool success\n"
        "string message\n"
        "# sfm_capacity: 1024\n"
    ),
    "rossf_bench/AddTwoInts": (
        "int64 a\n"
        "int64 b\n"
        "# sfm_capacity: 64\n"
        "---\n"
        "int64 sum\n"
        "# sfm_capacity: 64\n"
    ),
    "rossf_bench/GetImage": (
        "uint32 height\n"
        "uint32 width\n"
        "# sfm_capacity: 64\n"
        "---\n"
        "sensor_msgs/Image image\n"
        "# sfm_capacity: 8388608\n"
    ),
}

#: Process-wide service registry (parallels repro.msg.default_registry).
default_service_registry = ServiceRegistry()


def register_all(registry: Optional[ServiceRegistry] = None) -> ServiceRegistry:
    registry = registry or default_service_registry
    import repro.msg.library  # noqa: F401  (response types use the library)

    for full_name, text in SERVICE_DEFINITIONS.items():
        registry.register_text(full_name, text)
    return registry


register_all()


@dataclass(frozen=True)
class ServiceType:
    """A handle bundling the generated request/response classes, used by
    service servers and clients (plain-message flavour)."""

    spec: ServiceSpec
    request_class: type
    response_class: type
    md5sum: str


def service_type(full_name: str,
                 registry: Optional[ServiceRegistry] = None) -> ServiceType:
    """Resolve a registered service into its generated classes."""
    registry = registry or default_service_registry
    spec = registry.get(full_name)
    return ServiceType(
        spec=spec,
        request_class=generate_message_class(
            spec.request.full_name, registry.types
        ),
        response_class=generate_message_class(
            spec.response.full_name, registry.types
        ),
        md5sum=registry.md5sum(full_name),
    )


def sfm_service_type(full_name: str,
                     registry: Optional[ServiceRegistry] = None) -> ServiceType:
    """The SFM flavour: request/response as serialization-free classes."""
    from repro.sfm.generator import generate_sfm_class

    registry = registry or default_service_registry
    spec = registry.get(full_name)
    return ServiceType(
        spec=spec,
        request_class=generate_sfm_class(spec.request.full_name, registry.types),
        response_class=generate_sfm_class(spec.response.full_name, registry.types),
        md5sum=registry.md5sum(full_name),
    )

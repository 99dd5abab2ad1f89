"""Wire formats: the ROS baseline and the Fig. 14 comparators.

- :mod:`repro.serialization.rosser` -- the ROS1 wire format (little-endian,
  length-prefixed strings/arrays), the baseline that ROS-SF eliminates.
- :mod:`repro.serialization.protobuf` -- a Protocol-Buffers-like format
  (varints, tag/length/value) standing in for ProtoBuf in Fig. 14.
- :mod:`repro.serialization.flatbuffer` -- a FlatBuffer-like format with
  the vtable layout of the paper's Fig. 6, usable both as a conventional
  serializer and serialization-free (zero-copy access).
- :mod:`repro.serialization.xcdr2` -- an XCDR2/FlatData-like format with
  the EMHEADER parameter-list layout of the paper's Fig. 5, likewise
  usable serialization-free.
- :mod:`repro.serialization.endian` -- byte-order utilities shared by the
  formats and by SFM's subscriber-side endianness conversion.
"""

from repro.serialization.base import WireFormat
from repro.serialization.rosser import ROSSerializer

__all__ = ["WireFormat", "ROSSerializer"]

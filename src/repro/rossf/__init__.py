"""ROS-SF: the serialization-free middleware profile.

Gluing the pieces together (paper Section 4.3):

- the **SFM Generator** (:mod:`repro.sfm.generator`) produced message
  classes whose instances are their own wire buffers;
- the **ROS-SF Library** (:mod:`repro.sfm`) provides ``sfm`` string/vector
  views and the message manager;
- this package provides the **overloaded (de)serialization routines**
  (:class:`~repro.rossf.serializer.SfmCodec`) that the topic layer picks
  up automatically for SFM classes, and :mod:`repro.rossf.framework`, the
  user-facing switch: ``sfm_classes_for(...)`` / ``messages(...)`` hand
  application code SFM variants of its message classes so existing
  pub/sub code runs serialization-free without modification.

The **ROS-SF Converter** (the compile-time component) lives in
:mod:`repro.converter`.
"""

from repro.rossf.framework import messages, sfm_classes_for
from repro.rossf.serializer import SfmCodec
from repro.rossf.diagnostics import ManagerReport, find_leaks, report

__all__ = [
    "ManagerReport",
    "SfmCodec",
    "find_leaks",
    "messages",
    "report",
    "sfm_classes_for",
]

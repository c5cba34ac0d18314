"""Exception types raised across the package.

Everything user-facing derives from ClusterSegError so the CLI can map
library failures to a single exit code.
"""


class ClusterSegError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(ClusterSegError):
    """Array dimensions disagree with each other or with the camera model."""


class EmptyPointCloudError(ClusterSegError):
    """An object feature was requested for a cloud with no points."""


class PlacementError(ClusterSegError):
    """Scene sampling could not place an object within the attempt budget."""


class MaskContainmentError(ClusterSegError):
    """A modal mask contains pixels outside its amodal mask."""


class NonFiniteError(ClusterSegError):
    """A computation produced NaN or infinity where finite values are required."""


class ValueRangeError(ClusterSegError):
    """A stored value lies outside the range its field allows."""


class TargetError(ClusterSegError):
    """A classification target holds a value other than 0 and 1."""


class BundleError(ClusterSegError):
    """Base class for tensor-bundle I/O failures."""


class BundleManifestError(BundleError):
    """The bundle is malformed: bad magic, bad JSON, bad fields or bytes after the last tensor."""


class BundleTruncatedError(BundleError):
    """The bundle payload ends before the manifest says it should."""


class BundleDtypeError(BundleError):
    """The bundle references a dtype tag this format does not support."""

// Axis-aligned bounding box in the coordinates of some CRS.

#ifndef GEOSTREAMS_GEO_BOUNDING_BOX_H_
#define GEOSTREAMS_GEO_BOUNDING_BOX_H_

#include <algorithm>
#include <limits>
#include <string>

#include "common/string_util.h"

namespace geostreams {

/// Closed axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
/// The default-constructed box is empty.
struct BoundingBox {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  BoundingBox() = default;
  BoundingBox(double x0, double y0, double x1, double y1)
      : min_x(std::min(x0, x1)),
        min_y(std::min(y0, y1)),
        max_x(std::max(x0, x1)),
        max_y(std::max(y0, y1)) {}

  bool empty() const { return min_x > max_x || min_y > max_y; }
  double width() const { return empty() ? 0.0 : max_x - min_x; }
  double height() const { return empty() ? 0.0 : max_y - min_y; }
  double area() const { return width() * height(); }

  bool Contains(double x, double y) const {
    return x >= min_x && x <= max_x && y >= min_y && y <= max_y;
  }

  bool Intersects(const BoundingBox& o) const {
    return !empty() && !o.empty() && min_x <= o.max_x && o.min_x <= max_x &&
           min_y <= o.max_y && o.min_y <= max_y;
  }

  bool ContainsBox(const BoundingBox& o) const {
    return !o.empty() && min_x <= o.min_x && max_x >= o.max_x &&
           min_y <= o.min_y && max_y >= o.max_y;
  }

  /// Grows this box to cover the point (x, y).
  void ExpandToInclude(double x, double y) {
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  }

  void ExpandToInclude(const BoundingBox& o) {
    if (o.empty()) return;
    ExpandToInclude(o.min_x, o.min_y);
    ExpandToInclude(o.max_x, o.max_y);
  }

  BoundingBox Intersection(const BoundingBox& o) const {
    if (!Intersects(o)) return BoundingBox();
    BoundingBox r;
    r.min_x = std::max(min_x, o.min_x);
    r.min_y = std::max(min_y, o.min_y);
    r.max_x = std::min(max_x, o.max_x);
    r.max_y = std::min(max_y, o.max_y);
    return r;
  }

  bool operator==(const BoundingBox& o) const {
    return min_x == o.min_x && min_y == o.min_y && max_x == o.max_x &&
           max_y == o.max_y;
  }

  std::string ToString() const {
    if (empty()) return "bbox(empty)";
    return "bbox(" + FormatDouble(min_x) + ", " + FormatDouble(min_y) + ", " +
           FormatDouble(max_x) + ", " + FormatDouble(max_y) + ")";
  }
};

}  // namespace geostreams

#endif  // GEOSTREAMS_GEO_BOUNDING_BOX_H_

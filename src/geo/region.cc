#include "geo/region.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/string_util.h"

namespace geostreams {

// ---------------------------------------------------------------------------
// PolygonRegion

PolygonRegion::PolygonRegion(std::vector<std::pair<double, double>> vertices)
    : vertices_(std::move(vertices)) {
  for (const auto& [x, y] : vertices_) bounds_.ExpandToInclude(x, y);
}

bool PolygonRegion::Contains(double x, double y) const {
  if (!bounds_.Contains(x, y)) return false;
  // Even-odd ray casting toward +x.
  bool inside = false;
  const size_t n = vertices_.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const double xi = vertices_[i].first, yi = vertices_[i].second;
    const double xj = vertices_[j].first, yj = vertices_[j].second;
    const bool crosses = (yi > y) != (yj > y);
    if (crosses && x < (xj - xi) * (y - yi) / (yj - yi) + xi) {
      inside = !inside;
    }
  }
  return inside;
}

std::string PolygonRegion::ToString() const {
  std::string s = "polygon(";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i) s += ", ";
    s += FormatDouble(vertices_[i].first) + ", " +
         FormatDouble(vertices_[i].second);
  }
  s += ")";
  return s;
}

// ---------------------------------------------------------------------------
// ConstraintRegion

double PolynomialConstraint::Evaluate(double x, double y) const {
  double sum = 0.0;
  for (const Term& t : terms) {
    sum += t.coef * std::pow(x, t.x_power) * std::pow(y, t.y_power);
  }
  return sum;
}

std::string PolynomialConstraint::ToString() const {
  std::string s;
  for (size_t i = 0; i < terms.size(); ++i) {
    const Term& t = terms[i];
    if (i) s += " + ";
    s += FormatDouble(t.coef) +
         StringPrintf("*x^%d*y^%d", t.x_power, t.y_power);
  }
  s += " <= 0";
  return s;
}

ConstraintRegion::ConstraintRegion(
    std::vector<PolynomialConstraint> constraints, BoundingBox bounds)
    : constraints_(std::move(constraints)), bounds_(bounds) {}

bool ConstraintRegion::Contains(double x, double y) const {
  if (!bounds_.Contains(x, y)) return false;
  if (is_disk_) {
    const double dx = x - disk_cx_;
    const double dy = y - disk_cy_;
    return dx * dx + dy * dy <= disk_r2_;
  }
  for (const PolynomialConstraint& c : constraints_) {
    if (c.Evaluate(x, y) > 0.0) return false;
  }
  return true;
}

bool ConstraintRegion::AsDisk(double* cx, double* cy, double* r2) const {
  if (!is_disk_) return false;
  *cx = disk_cx_;
  *cy = disk_cy_;
  *r2 = disk_r2_;
  return true;
}

std::string ConstraintRegion::ToString() const {
  if (!query_form_.empty()) return query_form_;
  std::string s = "constraint(";
  for (size_t i = 0; i < constraints_.size(); ++i) {
    if (i) s += " and ";
    s += constraints_[i].ToString();
  }
  s += ")";
  return s;
}

std::shared_ptr<ConstraintRegion> ConstraintRegion::Disk(double cx, double cy,
                                                         double r) {
  // (x - cx)^2 + (y - cy)^2 - r^2 <= 0, expanded into monomials.
  PolynomialConstraint c;
  c.terms = {{1.0, 2, 0},
             {-2.0 * cx, 1, 0},
             {1.0, 0, 2},
             {-2.0 * cy, 0, 1},
             {cx * cx + cy * cy - r * r, 0, 0}};
  auto region = std::make_shared<ConstraintRegion>(
      std::vector<PolynomialConstraint>{std::move(c)},
      BoundingBox(cx - r, cy - r, cx + r, cy + r));
  region->query_form_ = "disk(" + FormatDouble(cx) + ", " + FormatDouble(cy) +
                       ", " + FormatDouble(r) + ")";
  region->is_disk_ = true;
  region->disk_cx_ = cx;
  region->disk_cy_ = cy;
  region->disk_r2_ = r * r;
  return region;
}

// ---------------------------------------------------------------------------
// EnumeratedRegion

EnumeratedRegion::EnumeratedRegion(
    std::vector<std::pair<double, double>> points, double cell_size)
    : cell_size_(cell_size > 0 ? cell_size : 1.0) {
  keys_.reserve(points.size());
  for (const auto& [x, y] : points) {
    keys_.emplace_back(KeyOf(x), KeyOf(y));
    bounds_.ExpandToInclude(x, y);
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
}

int64_t EnumeratedRegion::KeyOf(double v) const {
  return static_cast<int64_t>(std::llround(v / cell_size_));
}

bool EnumeratedRegion::Contains(double x, double y) const {
  const std::pair<int64_t, int64_t> key(KeyOf(x), KeyOf(y));
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

std::string EnumeratedRegion::ToString() const {
  return StringPrintf("enumerated(%zu points, cell %g)", keys_.size(),
                      cell_size_);
}

// ---------------------------------------------------------------------------
// CompositeRegion

CompositeRegion::CompositeRegion(RegionKind kind,
                                 std::vector<RegionPtr> children)
    : kind_(kind), children_(std::move(children)) {
  if (kind_ == RegionKind::kUnion) {
    for (const RegionPtr& c : children_) bounds_.ExpandToInclude(c->bounds());
  } else {
    // Intersection: intersect the child boxes.
    bool first = true;
    for (const RegionPtr& c : children_) {
      if (first) {
        bounds_ = c->bounds();
        first = false;
      } else {
        bounds_ = bounds_.Intersection(c->bounds());
      }
    }
  }
}

bool CompositeRegion::Contains(double x, double y) const {
  if (kind_ == RegionKind::kUnion) {
    for (const RegionPtr& c : children_) {
      if (c->Contains(x, y)) return true;
    }
    return false;
  }
  for (const RegionPtr& c : children_) {
    if (!c->Contains(x, y)) return false;
  }
  return !children_.empty();
}

std::string CompositeRegion::ToString() const {
  std::string s = kind_ == RegionKind::kUnion ? "union(" : "intersection(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i) s += ", ";
    s += children_[i]->ToString();
  }
  s += ")";
  return s;
}

// ---------------------------------------------------------------------------
// AllRegion + factories

RegionPtr AllRegion::Instance() {
  static RegionPtr instance = std::make_shared<AllRegion>();
  return instance;
}

RegionPtr MakeBBoxRegion(double x0, double y0, double x1, double y1) {
  return std::make_shared<BBoxRegion>(x0, y0, x1, y1);
}

RegionPtr MakePolygonRegion(
    std::vector<std::pair<double, double>> vertices) {
  return std::make_shared<PolygonRegion>(std::move(vertices));
}

RegionPtr MakeUnionRegion(std::vector<RegionPtr> children) {
  return std::make_shared<CompositeRegion>(RegionKind::kUnion,
                                           std::move(children));
}

RegionPtr MakeIntersectionRegion(std::vector<RegionPtr> children) {
  return std::make_shared<CompositeRegion>(RegionKind::kIntersection,
                                           std::move(children));
}

}  // namespace geostreams

// Columnar property store. The paper stresses that real graphs carry
// "thousands of properties" per vertex, accreted over time as analysts
// write back one-time analytic results (§III). A columnar layout makes
// "compute a property for all vertices then write it back" a single dense
// array, and projection (copy a small subset of columns into an extracted
// subgraph) a column-pointer copy.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/common.hpp"

namespace ga::graph {

class PropertyTable {
 public:
  using DoubleCol = std::vector<double>;
  using IntCol = std::vector<std::int64_t>;
  using StringCol = std::vector<std::string>;
  using Column = std::variant<DoubleCol, IntCol, StringCol>;

  explicit PropertyTable(std::size_t num_rows = 0) : rows_(num_rows) {}

  std::size_t num_rows() const { return rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  /// Grows the row count (streaming vertex additions); existing columns are
  /// extended with zero/empty values.
  void resize_rows(std::size_t rows);

  bool has_column(const std::string& name) const {
    return index_.count(name) != 0;
  }
  std::vector<std::string> column_names() const;

  /// Create a column (throws if it exists). Returns mutable data.
  DoubleCol& add_double_column(const std::string& name);
  IntCol& add_int_column(const std::string& name);
  StringCol& add_string_column(const std::string& name);

  /// Typed access; throws on missing column or type mismatch.
  DoubleCol& doubles(const std::string& name);
  const DoubleCol& doubles(const std::string& name) const;
  IntCol& ints(const std::string& name);
  const IntCol& ints(const std::string& name) const;
  StringCol& strings(const std::string& name);
  const StringCol& strings(const std::string& name) const;

  /// Projection: new table over `rows` (by index) keeping only `keep`
  /// columns — the Fig. 2 "copy only a small subset of the properties" step.
  PropertyTable project(const std::vector<std::uint32_t>& rows,
                        const std::vector<std::string>& keep) const;

  /// Write-back: merge `src` column values (aligned by `rows` mapping:
  /// src row i corresponds to this-table row rows[i]) into this table,
  /// creating columns as needed — Fig. 2's "update properties in the
  /// larger graph".
  void write_back(const PropertyTable& src,
                  const std::vector<std::uint32_t>& rows);

  /// Binary persistence (the paper's graphs "are persistent; their
  /// existence is independent of any single analytic").
  void serialize(std::ostream& os) const;
  static PropertyTable deserialize(std::istream& is);

  /// Order-sensitive content digest over rows, column names/types, and
  /// every value (doubles by bit pattern). Folded into
  /// pipeline::GraphStore::content_digest().
  std::uint64_t digest() const;

 private:
  Column& column(const std::string& name);
  const Column& column(const std::string& name) const;
  template <typename C>
  C& typed(const std::string& name);
  template <typename C>
  const C& typed(const std::string& name) const;

  std::size_t rows_;
  // Deque, not vector: add_*_column returns references to column data that
  // must survive later column additions.
  std::deque<std::pair<std::string, Column>> columns_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace ga::graph

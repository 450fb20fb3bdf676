#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace csaw {

/// Plain-text table printer for the bench harness. Each bench binary
/// regenerates one paper table/figure as rows of this table, so the docs
/// (docs/BENCHMARKS.md "Figure/table benches") can quote bench output
/// directly.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience for mixed numeric rows.
  class RowBuilder {
   public:
    explicit RowBuilder(TablePrinter& table) : table_(table) {}
    RowBuilder& cell(const std::string& s);
    RowBuilder& cell(double v, int precision = 2);
    RowBuilder& cell(std::int64_t v);
    ~RowBuilder();

    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

   private:
    TablePrinter& table_;
    std::vector<std::string> cells_;
  };
  RowBuilder row() { return RowBuilder(*this); }

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (bench output helper).
std::string fmt(double v, int precision = 2);

}  // namespace csaw

/**
 * @file
 * Console table rendering shared by the benchmark harness. Every figure/table
 * reproduction prints aligned rows through this printer so bench output is
 * uniform and diffable.
 */
#pragma once

#include <string>
#include <vector>

namespace dri::stats {

/** Column-aligned ASCII table builder. */
class TablePrinter
{
  public:
    /** Throws std::invalid_argument when headers is empty. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a row; throws std::invalid_argument unless it has the
     *  header's arity. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 3);
    /** Format as a percentage with sign, e.g. "+7.3%". */
    static std::string pct(double fraction, int precision = 1);
    /** Format an int list as "[1,2,3]" (replica vectors etc.). */
    static std::string intList(const std::vector<int> &values);

    /** Render the table with a separator under the header. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner used to delimit benchmark output blocks. */
std::string banner(const std::string &title);

} // namespace dri::stats

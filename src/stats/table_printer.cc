#include "stats/table_printer.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace dri::stats {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        throw std::invalid_argument("TablePrinter: no headers");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        throw std::invalid_argument(
            "TablePrinter: row has " + std::to_string(cells.size()) +
            " cells, the header " + std::to_string(headers_.size()));
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
TablePrinter::pct(double fraction, int precision)
{
    std::ostringstream os;
    os << std::showpos << std::fixed << std::setprecision(precision)
       << fraction * 100.0 << "%";
    return os.str();
}

std::string
TablePrinter::intList(const std::vector<int> &values)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << "]";
    return os.str();
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cells[c];
            os << (c + 1 == cells.size() ? "\n" : "  ");
        }
    };
    emit(headers_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

std::string
banner(const std::string &title)
{
    std::string line(72, '=');
    return line + "\n" + title + "\n" + line + "\n";
}

} // namespace dri::stats

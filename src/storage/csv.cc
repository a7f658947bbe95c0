#include "storage/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

namespace lsens {

namespace {

std::string Trim(const std::string& cell) {
  size_t begin = cell.find_first_not_of(" \t\r");
  size_t end = cell.find_last_not_of(" \t\r");
  return (begin == std::string::npos) ? std::string()
                                      : cell.substr(begin, end - begin + 1);
}

// RFC 4180 field splitting: cells are comma-separated; a cell may be
// double-quoted, in which case commas are literal and "" encodes one quote.
// Unquoted cells are whitespace-trimmed (legacy behavior); quoted cells are
// kept verbatim. Quoted cells may not continue past their closing quote,
// and an unterminated quote is an error (it is also what an RFC 4180
// embedded line break looks like to this line-based reader, so the message
// mentions both).
Status SplitLine(const std::string& line, size_t line_no,
                 std::vector<std::string>* cells) {
  cells->clear();
  size_t pos = 0;
  while (true) {
    // One cell starting at `pos`.
    size_t scan = line.find_first_not_of(" \t", pos);
    if (scan != std::string::npos && line[scan] == '"') {
      std::string cell;
      size_t i = scan + 1;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            cell += '"';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        cell += line[i++];
      }
      if (!closed) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": unterminated quoted cell (embedded line breaks are not"
            " supported)");
      }
      size_t rest = line.find_first_not_of(" \t\r", i);
      if (rest != std::string::npos && line[rest] != ',') {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": unexpected character after closing quote");
      }
      cells->push_back(std::move(cell));
      if (rest == std::string::npos) return Status::OK();
      pos = rest + 1;
      continue;
    }
    size_t comma = line.find(',', pos);
    if (comma == std::string::npos) {
      cells->push_back(Trim(line.substr(pos)));
      return Status::OK();
    }
    cells->push_back(Trim(line.substr(pos, comma - pos)));
    pos = comma + 1;
  }
}

bool IsInteger(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

// Exact int64 parse for a cell IsInteger accepted. Unlike std::stoll, an
// out-of-range literal reports failure instead of throwing through the
// Status API.
bool ParseInt64(const std::string& s, int64_t* out) {
  // std::from_chars accepts '-' but not '+'.
  const char* begin = s.data() + (s[0] == '+' ? 1 : 0);
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Status LoadCsvText(Database& db, const std::string& relation,
                   const std::string& text) {
  if (db.Find(relation) != nullptr) {
    return Status::InvalidArgument("relation '" + relation +
                                   "' already exists");
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV: missing header");
  }
  std::vector<std::string> header;
  LSENS_RETURN_IF_ERROR(SplitLine(line, 1, &header));
  for (const auto& col : header) {
    if (col.empty()) return Status::InvalidArgument("empty column name");
  }
  Relation* rel = db.AddRelation(relation, header);

  // Cells parse straight into per-column buffers — the same shape as the
  // relation's columnar storage — and the whole file lands with one
  // AppendColumns call (one contiguous copy per column chunk). String cells
  // intern through the database dictionary; any column that interned at
  // least one cell is marked dictionary-encoded in the catalog.
  std::vector<std::vector<Value>> columns(header.size());
  std::vector<bool> interned(header.size(), false);
  std::vector<std::string> cells;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    LSENS_RETURN_IF_ERROR(SplitLine(line, line_no, &cells));
    if (cells.size() != header.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(header.size()) + " cells, got " +
          std::to_string(cells.size()));
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      if (IsInteger(cells[c])) {
        int64_t parsed = 0;
        if (!ParseInt64(cells[c], &parsed)) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ", column " +
              std::to_string(c) + " ('" + header[c] + "'): integer literal '" +
              cells[c] + "' out of int64 range");
        }
        columns[c].push_back(static_cast<Value>(parsed));
      } else {
        columns[c].push_back(db.dict().Intern(cells[c]));
        interned[c] = true;
      }
    }
  }
  rel->AppendColumns(columns);
  for (size_t c = 0; c < header.size(); ++c) {
    if (interned[c]) rel->set_column_dictionary(c, true);
  }
  return Status::OK();
}

StatusOr<std::string> SaveCsvText(const Database& db,
                                  const std::string& relation,
                                  bool render_dictionary) {
  const Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  std::ostringstream out;
  for (size_t c = 0; c < rel->column_names().size(); ++c) {
    const std::string& name = rel->column_names()[c];
    if (name.find(',') != std::string::npos ||
        name.find('\n') != std::string::npos) {
      return Status::InvalidArgument("column name needs quoting: " + name);
    }
    out << (c > 0 ? "," : "") << name;
  }
  out << '\n';
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    for (size_t c = 0; c < rel->arity(); ++c) {
      Value v = rel->At(r, c);
      if (c > 0) out << ',';
      if (render_dictionary && db.dict().ContainsValue(v)) {
        const std::string& s = db.dict().String(v);
        if (s.find(',') != std::string::npos ||
            s.find('\n') != std::string::npos) {
          return Status::InvalidArgument("cell value needs quoting: " + s);
        }
        out << s;
      } else {
        out << v;
      }
    }
    out << '\n';
  }
  return out.str();
}

Status LoadCsv(Database& db, const std::string& relation,
               const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsvText(db, relation, buffer.str());
}

Status SaveCsv(const Database& db, const std::string& relation,
               const std::string& path, bool render_dictionary) {
  auto text = SaveCsvText(db, relation, render_dictionary);
  if (!text.ok()) return text.status();
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << *text;
  return out ? Status::OK() : Status::Internal("write failed: " + path);
}

}  // namespace lsens

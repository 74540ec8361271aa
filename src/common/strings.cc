#include "src/common/strings.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/types.h"

namespace scalecheck {

std::string StrFormatV(const char* fmt, va_list args) {
  va_list copy;
  va_copy(copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  CHECK_GE(needed, 0) << "bad format string";
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = StrFormatV(fmt, args);
  va_end(args);
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  // A cell's width in characters: UTF-8 continuation bytes take no column.
  auto width = [](const std::string& cell) {
    return static_cast<size_t>(std::count_if(
        cell.begin(), cell.end(), [](char byte) { return (byte & 0xC0) != 0x80; }));
  };
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    widths[c] = width(header[c]);
  }
  for (const auto& row : rows) {
    CHECK_EQ(row.size(), header.size());
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], width(row[c]));
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - width(row[c]), ' ') + " |";
    }
    return line + "\n";
  };
  std::string out = render_row(header) + "|";
  for (size_t c = 0; c < header.size(); ++c) {
    out += std::string(widths[c] + 2, '-') + "|";
  }
  out += "\n";
  for (const auto& row : rows) {
    out += render_row(row);
  }
  return out;
}

std::string HumanCount(double value) {
  const char* suffix = "";
  double v = value;
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  return StrFormat("%.3g%s", v, suffix);
}

std::string HumanBytes(int64_t bytes) {
  double v = static_cast<double>(bytes);
  const char* suffix = "B";
  if (v >= 1024.0 * 1024 * 1024) {
    v /= 1024.0 * 1024 * 1024;
    suffix = "GiB";
  } else if (v >= 1024.0 * 1024) {
    v /= 1024.0 * 1024;
    suffix = "MiB";
  } else if (v >= 1024.0) {
    v /= 1024.0;
    suffix = "KiB";
  }
  return StrFormat("%.2f%s", v, suffix);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) {
      out_ += ',';
    }
    first_in_scope_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  CHECK(!first_in_scope_.empty());
  first_in_scope_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  CHECK(!first_in_scope_.empty());
  first_in_scope_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  CHECK(!pending_key_) << "two keys in a row: " << key;
  if (!first_in_scope_.empty() && !first_in_scope_.back()) {
    out_ += ',';
  }
  if (!first_in_scope_.empty()) {
    first_in_scope_.back() = false;
  }
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  out_ += StrFormat("%.17g", value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& scalar) {
  BeforeValue();
  out_ += scalar;
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, const std::string& value) {
  return Key(key).String(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, const char* value) {
  return Key(key).String(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, int64_t value) {
  return Key(key).Int(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, uint64_t value) {
  return Key(key).UInt(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, int value) {
  return Key(key).Int(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, double value) {
  return Key(key).Double(value);
}
JsonWriter& JsonWriter::Field(const std::string& key, bool value) {
  return Key(key).Bool(value);
}

std::string VirtualDuration::ToString() const {
  int64_t abs_ns = ns_ < 0 ? -ns_ : ns_;
  const char* sign = ns_ < 0 ? "-" : "";
  if (abs_ns >= 60LL * 1000000000) {
    return StrFormat("%s%.2fmin", sign, static_cast<double>(abs_ns) / 60e9);
  }
  if (abs_ns >= 1000000000) {
    return StrFormat("%s%.3fs", sign, static_cast<double>(abs_ns) / 1e9);
  }
  if (abs_ns >= 1000000) {
    return StrFormat("%s%.3fms", sign, static_cast<double>(abs_ns) / 1e6);
  }
  if (abs_ns >= 1000) {
    return StrFormat("%s%.3fus", sign, static_cast<double>(abs_ns) / 1e3);
  }
  return StrFormat("%s%ldns", sign, static_cast<long>(abs_ns));
}

std::string VirtualTime::ToString() const {
  return StrFormat("t=%.6fs", seconds());
}

std::ostream& operator<<(std::ostream& os, VirtualDuration d) {
  return os << d.ToString();
}

std::ostream& operator<<(std::ostream& os, VirtualTime t) {
  return os << t.ToString();
}

}  // namespace scalecheck

// Small string utilities: printf-style formatting into std::string, joining,
// and markdown table rendering for reports.

#ifndef SCALECHECK_SRC_COMMON_STRINGS_H_
#define SCALECHECK_SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace scalecheck {

// snprintf into a std::string. GCC 12 lacks <format>, so this is the
// formatting workhorse for reports and logs.
[[gnu::format(printf, 1, 2)]] std::string StrFormat(const char* fmt, ...);
std::string StrFormatV(const char* fmt, va_list args);

std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Renders rows as a GitHub markdown pipe table: the header row, a |---|
// separator row and one line per row, every cell padded to its column's
// width in characters. Every row must have as many columns as the header.
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

// Human-readable quantities used in reports.
std::string HumanCount(double value);  // e.g. 12.3k, 4.5M
std::string HumanBytes(int64_t bytes);

// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

// A minimal streaming JSON writer for machine-readable reports. Output is
// deterministic: keys are emitted in call order and doubles use a fixed
// round-trippable format ("%.17g"), so identical values serialize to
// identical bytes (the ExperimentSuite determinism contract leans on this).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  // A pre-rendered number or true/false, spliced verbatim.
  JsonWriter& Raw(const std::string& scalar);

  // Shorthand for Key(key).<value>(...).
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value);
  JsonWriter& Field(const std::string& key, int64_t value);
  JsonWriter& Field(const std::string& key, uint64_t value);
  JsonWriter& Field(const std::string& key, int value);
  JsonWriter& Field(const std::string& key, double value);
  JsonWriter& Field(const std::string& key, bool value);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_COMMON_STRINGS_H_

/**
 * @file
 * Small JSON document model used by the experiment harness to emit
 * machine-readable results (`--json`).
 *
 * Design goals, in order: (1) exact round-tripping of uint64 counters —
 * cycle and event counts must not pass through a double; (2) a
 * deterministic, insertion-ordered writer so emitted files diff cleanly
 * across runs. The strict parser the regression tests use to round-trip
 * what the writer produces lives with them (tests/json_parse.hh). Not
 * goals: speed on huge documents, comments, or lenient parsing.
 */

#ifndef WISC_COMMON_JSON_HH_
#define WISC_COMMON_JSON_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace wisc {
namespace json {

/** A JSON value: null, bool, number (uint/int/double), string, array,
 *  or object. Objects preserve insertion order. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Uint,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Value(int v) : kind_(Kind::Int), int_(v) {}
    Value(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Value(double v) : kind_(Kind::Double), double_(v) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    // ---- scalar accessors (hard error on kind mismatch) ----
    bool asBool() const;
    std::uint64_t asUint() const;
    std::int64_t asInt() const;
    double asDouble() const; ///< any numeric kind
    const std::string &asString() const;

    // ---- array ----
    /** Append an element (array only). Returns the stored element. */
    Value &push(Value v);
    /** Element count of an array or member count of an object. */
    std::size_t size() const;
    /** Array element by index; hard error if out of range. */
    const Value &at(std::size_t i) const;

    // ---- object ----
    /** Insert-or-find a member (object only; a fresh Value is Null). */
    Value &operator[](const std::string &key);
    /** Member lookup; nullptr if absent (object only). */
    const Value *find(const std::string &key) const;
    /** Member lookup; hard error if absent. */
    const Value &at(const std::string &key) const;
    /** Members in insertion order (object only). */
    const std::vector<std::pair<std::string, Value>> &members() const;

    // ---- serialization ----
    /** Write the document; indent > 0 pretty-prints. */
    void write(std::ostream &os, int indent = 2) const;
    std::string dump(int indent = 2) const;

  private:
    void writeImpl(std::ostream &os, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

} // namespace json
} // namespace wisc

#endif // WISC_COMMON_JSON_HH_

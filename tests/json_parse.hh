/**
 * @file
 * Strict JSON parser for the regression tests: it reads back what
 * json::Value writes (common/json.hh), so the tests can round-trip
 * emitted documents. Nothing outside the tests parses JSON.
 */

#ifndef WISC_TESTS_JSON_PARSE_HH_
#define WISC_TESTS_JSON_PARSE_HH_

#include <string>

#include "common/json.hh"

namespace wisc {
namespace json {

/** Strict parse; throws FatalError on malformed input. */
Value parse(const std::string &text);

} // namespace json
} // namespace wisc

#endif // WISC_TESTS_JSON_PARSE_HH_

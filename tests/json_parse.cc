#include "json_parse.hh"

#include <charconv>
#include <cstdint>
#include <string>

#include "common/log.hh"

namespace wisc {
namespace json {

namespace {

/** Recursive-descent parser over a string view of the input. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        wisc_fatal("JSON parse error at offset ", pos_, ": ", why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue(int depth)
    {
        if (depth > 200)
            fail("nesting too deep");
        skipWs();
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject(int depth)
    {
        expect('{');
        Value v = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v[key] = parseValue(depth + 1);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray(int depth)
    {
        expect('[');
        Value v = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.push(parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            char esc = peek();
            ++pos_;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fail("bad escape");
            }
        }
    }

    std::string
    parseUnicodeEscape()
    {
        auto hex4 = [&]() -> unsigned {
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
                char c = peek();
                ++pos_;
                v <<= 4;
                if (c >= '0' && c <= '9')
                    v |= static_cast<unsigned>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    v |= static_cast<unsigned>(c - 'a' + 10);
                else if (c >= 'A' && c <= 'F')
                    v |= static_cast<unsigned>(c - 'A' + 10);
                else
                    fail("bad \\u escape");
            }
            return v;
        };
        std::uint32_t cp = hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // Surrogate pair.
            if (!consumeLiteral("\\u"))
                fail("unpaired surrogate");
            std::uint32_t lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        // Encode as UTF-8.
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        return out;
    }

    Value
    parseNumber()
    {
        std::size_t start = pos_;
        bool neg = false, isFloat = false;
        if (peek() == '-') {
            neg = true;
            ++pos_;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isFloat = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start + (neg ? 1u : 0u))
            fail("bad number");
        std::string tok = text_.substr(start, pos_ - start);
        if (!isFloat) {
            // Integers keep full 64-bit precision.
            if (neg) {
                std::int64_t v = 0;
                auto res = std::from_chars(
                    tok.data(), tok.data() + tok.size(), v);
                if (res.ec != std::errc() ||
                    res.ptr != tok.data() + tok.size())
                    fail("bad integer");
                return Value(v);
            }
            std::uint64_t v = 0;
            auto res =
                std::from_chars(tok.data(), tok.data() + tok.size(), v);
            if (res.ec != std::errc() ||
                res.ptr != tok.data() + tok.size())
                fail("bad integer");
            return Value(v);
        }
        double d = 0.0;
        auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
            fail("bad number");
        return Value(d);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace json
} // namespace wisc

// SARIF 2.1.0 serialization of lint diagnostics, shaped for GitHub
// code-scanning upload (one run, one driver, rule metadata from rules()).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace espread::lint {

namespace {

std::string esc(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

std::string sarif_json(const std::vector<Diagnostic>& diags) {
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
           "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [{\n"
        << "    \"tool\": {\"driver\": {\n"
        << "      \"name\": \"espread_lint\",\n"
        << "      \"informationUri\": "
           "\"https://example.invalid/espread/tools/espread_lint\",\n"
        << "      \"rules\": [\n";
    const std::vector<RuleInfo>& infos = rules();
    for (std::size_t i = 0; i < infos.size(); ++i) {
        out << "        {\"id\": \"" << esc(infos[i].id)
            << "\", \"shortDescription\": {\"text\": \""
            << esc(infos[i].summary)
            << "\"}, \"defaultConfiguration\": {\"level\": \"error\"}}"
            << (i + 1 < infos.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    }},\n"
        << "    \"results\": [\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic& d = diags[i];
        const std::size_t line = d.line == 0 ? 1 : d.line;
        out << "      {\"ruleId\": \"" << esc(d.rule)
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << esc(d.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << esc(d.path) << "\"}, \"region\": {\"startLine\": " << line
            << "}}}]}" << (i + 1 < diags.size() ? "," : "") << "\n";
    }
    out << "    ]\n"
        << "  }]\n"
        << "}\n";
    return out.str();
}

}  // namespace espread::lint

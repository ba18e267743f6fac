#include "analyze/render.h"

#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace gerel {

namespace {

// "<file>" or "<file>:<line>:<col>" depending on what is known.
std::string Location(const RenderOptions& options, Span span) {
  if (options.source == nullptr || span.empty()) return options.file;
  LineCol lc = options.source->Resolve(span);
  return options.file + ":" + std::to_string(lc.line) + ":" +
         std::to_string(lc.col);
}

std::vector<std::pair<const char*, bool>> ClassList(
    const Classification& c) {
  return {{"datalog", c.datalog},
          {"guarded", c.guarded},
          {"frontier-guarded", c.frontier_guarded},
          {"weakly-guarded", c.weakly_guarded},
          {"weakly-frontier-guarded", c.weakly_frontier_guarded},
          {"nearly-guarded", c.nearly_guarded},
          {"nearly-frontier-guarded", c.nearly_frontier_guarded}};
}

std::vector<std::pair<const char*, bool>> ExtendedClassList(
    const ExtendedClassification& c) {
  return {{"linear", c.linear},
          {"frontier-one", c.frontier_one},
          {"joinless", c.joinless},
          {"domain-restricted", c.domain_restricted},
          {"shy", c.shy}};
}

// '["r0.Y", "r1.Z"]'.
std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(items[i]);
    out += '"';
  }
  return out + "]";
}

}  // namespace

std::string RenderText(const AnalysisResult& result,
                       const RenderOptions& options) {
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    out += Location(options, d.span) + ": " + SeverityName(d.severity) +
           "[" + d.code + "]: " + d.message + "\n";
    if (options.source != nullptr && !d.span.empty()) {
      out += options.source->Snippet(d.span);
    }
    for (const std::string& note : d.notes) {
      out += "  note: " + note + "\n";
    }
  }

  std::string classes;
  for (const auto& [name, member] : ClassList(result.classification)) {
    if (!member) continue;
    if (!classes.empty()) classes += ", ";
    classes += name;
  }
  if (classes.empty()) classes = "none of the seven classes (Fig. 1)";
  out += options.file + ": classification: " + classes + "\n";

  std::string extended;
  for (const auto& [name, member] : ExtendedClassList(result.extended)) {
    if (!member) continue;
    if (!extended.empty()) extended += ", ";
    extended += name;
  }
  if (extended.empty()) extended = "none of the extended classes";
  out += options.file + ": extended: " + extended + "\n";
  out += options.file + ": termination: " +
         std::string(CertificateKindName(result.termination.kind)) + "\n";

  if (!result.witnesses.empty()) {
    out += options.file + ": explain:\n";
    for (const ClassWitness& w : result.witnesses) {
      out += std::string("  ") + w.class_name + ": ";
      out += w.member ? "yes" : "no: " + w.reason;
      out += "\n";
    }
  }

  out += options.file + ": " + std::to_string(result.errors) +
         " error(s), " + std::to_string(result.warnings) + " warning(s), " +
         std::to_string(result.notes) + " note(s)\n";
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderJson(const AnalysisResult& result,
                       const RenderOptions& options) {
  std::string out = "{\n";
  out += "  \"file\": \"" + JsonEscape(options.file) + "\",\n";

  out += "  \"classification\": {";
  bool first = true;
  for (const auto& [name, member] : ClassList(result.classification)) {
    if (!first) out += ", ";
    first = false;
    // JSON keys use underscores, matching ServiceStats::ToJson.
    std::string key = name;
    for (char& c : key) {
      if (c == '-') c = '_';
    }
    out += "\"" + key + "\": " + (member ? "true" : "false");
  }
  out += "},\n";

  out += "  \"extended_classification\": {";
  first = true;
  for (const auto& [name, member] : ExtendedClassList(result.extended)) {
    if (!first) out += ", ";
    first = false;
    std::string key = name;
    for (char& c : key) {
      if (c == '-') c = '_';
    }
    out += "\"" + key + "\": " + (member ? "true" : "false");
  }
  out += "},\n";

  const TerminationCertificate& cert = result.termination;
  out += "  \"termination\": {\"certificate\": \"" +
         std::string(CertificateKindName(cert.kind)) +
         "\", \"terminating\": " + (cert.terminating() ? "true" : "false");
  if (!result.termination_order.empty()) {
    out += ", \"order\": " + JsonStringArray(result.termination_order);
  }
  if (!result.termination_cycle.empty()) {
    out += ", \"cycle\": " + JsonStringArray(result.termination_cycle);
  }
  if (cert.kind == CertificateKind::kMfa ||
      cert.kind == CertificateKind::kRefuted ||
      cert.kind == CertificateKind::kInconclusive) {
    out += ", \"critical_steps\": " + std::to_string(cert.critical_steps) +
           ", \"critical_atoms\": " + std::to_string(cert.critical_atoms);
  }
  out += "},\n";

  out += "  \"diagnostics\": [";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    LineCol lc;
    bool located = options.source != nullptr && !d.span.empty();
    if (located) lc = options.source->Resolve(d.span);
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"code\": \"" + d.code + "\", \"severity\": \"" +
           SeverityName(d.severity) + "\", \"line\": " +
           std::to_string(located ? lc.line : 0) + ", \"col\": " +
           std::to_string(located ? lc.col : 0) + ", \"message\": \"" +
           JsonEscape(d.message) + "\", \"notes\": [";
    for (size_t j = 0; j < d.notes.size(); ++j) {
      if (j > 0) out += ", ";
      out += '"';
      out += JsonEscape(d.notes[j]);
      out += '"';
    }
    out += "]}";
  }
  out += result.diagnostics.empty() ? "],\n" : "\n  ],\n";

  if (!result.witnesses.empty()) {
    out += "  \"witnesses\": [\n";
    for (size_t i = 0; i < result.witnesses.size(); ++i) {
      const ClassWitness& w = result.witnesses[i];
      out += "    {\"class\": \"" + std::string(w.class_name) +
             "\", \"member\": " + (w.member ? "true" : "false");
      if (!w.member) {
        out += ", \"rule\": " + std::to_string(w.rule_index) +
               ", \"reason\": \"" + JsonEscape(w.reason) + "\"";
      }
      out += i + 1 < result.witnesses.size() ? "},\n" : "}\n";
    }
    out += "  ],\n";
  }

  out += "  \"errors\": " + std::to_string(result.errors) +
         ", \"warnings\": " + std::to_string(result.warnings) +
         ", \"notes\": " + std::to_string(result.notes) + "\n";
  out += "}\n";
  return out;
}

std::string RenderParseError(const Status& status, std::string_view file) {
  const std::string& message = status.message();
  // Parser statuses start with "line L:C: "; re-anchor on the file name.
  if (message.rfind("line ", 0) == 0) {
    size_t i = 5;
    size_t digits_begin = i;
    while (i < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[i]))) {
      ++i;
    }
    if (i > digits_begin && i < message.size() && message[i] == ':') {
      size_t col_begin = ++i;
      while (i < message.size() &&
             std::isdigit(static_cast<unsigned char>(message[i]))) {
        ++i;
      }
      if (i > col_begin && i + 1 < message.size() && message[i] == ':' &&
          message[i + 1] == ' ') {
        std::string out(file);
        out += ":";
        out += message.substr(digits_begin, i - digits_begin);
        out += ": error[GR000]: ";
        out += message.substr(i + 2);
        out += "\n";
        return out;
      }
    }
  }
  std::string out(file);
  out += ": error[GR000]: " + message + "\n";
  return out;
}

}  // namespace gerel

// gtest parameter label for a tracking technique: lib::technique_name()
// lower-cased, letters and digits only ("/proc" -> "proc", "SPML" -> "spml"),
// so every technique, present or future, gets a valid test-name suffix.
#pragma once

#include <cctype>
#include <string>

#include "ooh/tracker.hpp"

namespace ooh::test {

[[nodiscard]] inline std::string technique_label(lib::Technique t) {
  std::string label;
  for (const char c : lib::technique_name(t)) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) != 0) label += static_cast<char>(std::tolower(uc));
  }
  return label;
}

}  // namespace ooh::test

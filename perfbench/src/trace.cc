#include "trace.hh"

#include <cstdio>

namespace perfbench {

bool
Tracer::writeJson(const std::string &path, const std::string &workload,
                  std::uint64_t seed) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"id\": %u, \"parent\": %u, \"name\": \"%.*s\", "
                     "\"host_begin_ns\": %lld, \"host_end_ns\": %lld, "
                     "\"vc_begin\": %llu, \"vc_end\": %llu}",
                     i ? "," : "", s.id, s.parent,
                     static_cast<int>(s.name.size()), s.name.data(),
                     static_cast<long long>(s.hostBegin),
                     static_cast<long long>(s.hostEnd),
                     static_cast<unsigned long long>(s.vcBegin),
                     static_cast<unsigned long long>(s.vcEnd));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

#include "service/frontend.hpp"

#include <deque>
#include <istream>
#include <ostream>

#include "service/handler.hpp"

namespace wfc::svc {

int run_jsonl_server(std::istream& in, std::ostream& out, std::ostream& err,
                     const ServeConfig& config) {
  QueryService::Options service_options = config.service;
  // The metrics / trace ops answer from the obs layer, so the serve path
  // turns it on by default (QueryService embedded elsewhere keeps the
  // zero-cost disabled default).
  if (config.observability) service_options.obs.enabled = true;
  QueryService service(std::move(service_options));

  HandlerConfig handler_config;
  handler_config.default_max_level = config.default_max_level;
  handler_config.max_line_bytes = config.max_line_bytes;
  // The stdin transport runs in the operator's own shell, so path-bearing
  // metrics/trace ops may write files; network transports keep this off.
  handler_config.allow_control_paths = true;
  RequestHandler handler(service, handler_config);

  // One submitted query whose result line has not been printed yet.  The
  // stdin transport prints results in SUBMISSION order (queries still
  // execute concurrently), so completed tickets wait in this deque behind
  // earlier ones.
  std::deque<RequestHandler::Submitted> pending;
  int error_lines = 0;

  auto drain = [&](std::size_t keep) {
    while (pending.size() > keep) {
      RequestHandler::Submitted p = std::move(pending.front());
      pending.pop_front();
      RequestHandler::Rendered rendered =
          handler.render(p.meta, p.ticket.result.get());
      if (rendered.error) ++error_lines;
      out << rendered.line << "\n";
    }
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    RequestHandler::ParsedLine parsed = handler.parse(line, line_no);
    switch (parsed.action) {
      case RequestHandler::Action::kSkip:
        break;
      case RequestHandler::Action::kRespond:
        if (parsed.immediate.error) ++error_lines;
        drain(0);  // keep result lines in input order
        out << parsed.immediate.line << "\n";
        break;
      case RequestHandler::Action::kControl: {
        // Counters must reflect every query submitted before this line
        // (stats), and every submitted query must be terminal so the
        // metrics line reconciles and every span is in the trace ring.
        drain(0);
        RequestHandler::Rendered rendered = handler.control(parsed);
        if (rendered.error) ++error_lines;
        out << rendered.line << "\n";
        break;
      }
      case RequestHandler::Action::kSubmit: {
        RequestHandler::Rendered error;
        if (auto submitted = handler.submit(parsed, &error)) {
          pending.push_back(std::move(*submitted));
        } else {
          // A malformed line answers for itself -- with the line number so
          // the offending record in a big batch is findable -- and NEVER
          // terminates the serve loop.
          ++error_lines;
          drain(0);  // keep result lines in input order
          out << error.line << "\n";
        }
        break;
      }
    }
    // Keep the printed order equal to the submission order without letting
    // the backlog grow unboundedly on huge inputs.
    if (pending.size() >= 4096) drain(2048);
  }
  drain(0);
  if (config.stats_at_eof) {
    err << "wfc_serve: " << service.stats().to_string() << "\n";
  }
  return error_lines;
}

}  // namespace wfc::svc
